//! Rua runtime values and tables.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::interp::{Closure, NativeFn};

/// A Rua value.
///
/// Like Lua, Rua is dynamically typed with a single number type (`f64`),
/// interned-ish strings (`Rc<str>`), reference-semantics tables and
/// first-class functions (script closures or host natives).
#[derive(Clone, Default)]
pub enum Value {
    /// The absent value.
    #[default]
    Nil,
    /// A boolean.
    Bool(bool),
    /// A number (`f64`, like classic Lua).
    Num(f64),
    /// An immutable string.
    Str(Rc<str>),
    /// A mutable table with reference semantics.
    Table(Rc<RefCell<Table>>),
    /// A script closure.
    Function(Rc<Closure>),
    /// A host-provided native function.
    Native(NativeFn),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Builds a fresh empty table value.
    pub fn table() -> Value {
        Value::Table(Rc::new(RefCell::new(Table::new())))
    }

    /// Lua truthiness: everything except `nil` and `false` is true.
    pub fn truthy(&self) -> bool {
        !matches!(self, Value::Nil | Value::Bool(false))
    }

    /// The value's type name, as returned by the `type` builtin.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Table(_) => "table",
            Value::Function(_) | Value::Native(_) => "function",
        }
    }

    /// The number, if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The table handle, if this is one.
    pub fn as_table(&self) -> Option<&Rc<RefCell<Table>>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Coerces to a number the way Lua arithmetic does: numbers pass
    /// through, numeric strings convert.
    pub fn coerce_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Str(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// Renders the value the way `tostring` does.
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Str(s) => s.to_string(),
            other => other.to_string(),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Num(n as f64)
    }
}
impl From<i32> for Value {
    fn from(n: i32) -> Value {
        Value::Num(n as f64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(Rc::from(s.as_str()))
    }
}

/// Formats a number the way Lua prints it: integral values without a
/// decimal point.
pub(crate) fn fmt_number(n: f64) -> String {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write!(f, "{}", fmt_number(*n)),
            Value::Str(s) => write!(f, "{s}"),
            Value::Table(t) => write!(f, "table: {:p}", Rc::as_ptr(t)),
            Value::Function(c) => write!(f, "function: {:p}", Rc::as_ptr(c)),
            Value::Native(n) => write!(f, "function: builtin:{}", n.name),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Table(t) => {
                let table = t.borrow();
                write!(f, "{{")?;
                for (i, (k, v)) in table.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[{k:?}]={v:?}")?;
                }
                write!(f, "}}")
            }
            other => write!(f, "{other}"),
        }
    }
}

/// Lua equality: primitive values by value, tables and functions by
/// identity.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Table(a), Value::Table(b)) => Rc::ptr_eq(a, b),
            (Value::Function(a), Value::Function(b)) => Rc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) => Rc::ptr_eq(&a.f, &b.f),
            _ => false,
        }
    }
}

/// A table key. `nil` and NaN are not valid keys; integral numbers
/// normalise to [`Key::Int`] so `t[1]` and `t[1.0]` agree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// Boolean key.
    Bool(bool),
    /// Integer key (also any integral number).
    Int(i64),
    /// Non-integral number key, ordered by bit pattern.
    Num(u64),
    /// String key.
    Str(Rc<str>),
}

impl Key {
    /// Converts a value to a key.
    ///
    /// Returns `None` for `nil`, NaN, tables and functions (identity
    /// keys are not supported in Rua).
    pub fn from_value(v: &Value) -> Option<Key> {
        match v {
            Value::Bool(b) => Some(Key::Bool(*b)),
            Value::Num(n) if n.is_nan() => None,
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(Key::Int(*n as i64)),
            Value::Num(n) => Some(Key::Num(n.to_bits())),
            Value::Str(s) => Some(Key::Str(s.clone())),
            _ => None,
        }
    }

    /// Converts the key back to a value.
    pub fn to_value(&self) -> Value {
        match self {
            Key::Bool(b) => Value::Bool(*b),
            Key::Int(n) => Value::Num(*n as f64),
            Key::Num(bits) => Value::Num(f64::from_bits(*bits)),
            Key::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// A Rua table: an ordered associative array.
///
/// Iteration order is deterministic (sorted by key), which keeps remote
/// evaluation reproducible across runs — a deliberate difference from
/// Lua's unspecified `pairs` order.
///
/// ```
/// use adapta_script::{Table, Value};
///
/// let mut t = Table::new();
/// t.set(Value::from(1i64), Value::from("a")).unwrap();
/// t.set(Value::from("x"), Value::from(2.5)).unwrap();
/// assert_eq!(t.len(), 1); // array part: consecutive keys from 1
/// assert_eq!(t.get(&Value::from("x")), Value::from(2.5));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    map: BTreeMap<Key, Value>,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Table {
            map: BTreeMap::new(),
        }
    }

    /// Number of entries (of any key type).
    pub fn total_entries(&self) -> usize {
        self.map.len()
    }

    /// Lua's `#`: the number of consecutive integer keys starting at 1.
    pub fn len(&self) -> usize {
        let mut n = 0usize;
        while self.map.contains_key(&Key::Int(n as i64 + 1)) {
            n += 1;
        }
        n
    }

    /// True if the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reads `key`, returning `nil` when absent or unkeyable.
    pub fn get(&self, key: &Value) -> Value {
        Key::from_value(key)
            .and_then(|k| self.map.get(&k).cloned())
            .unwrap_or(Value::Nil)
    }

    /// Reads a string key.
    pub fn get_str(&self, key: &str) -> Value {
        self.map
            .get(&Key::Str(Rc::from(key)))
            .cloned()
            .unwrap_or(Value::Nil)
    }

    /// Writes `key = value`; assigning `nil` removes the entry.
    ///
    /// # Errors
    ///
    /// Returns a message when the key is `nil`, NaN, a table or a
    /// function.
    pub fn set(&mut self, key: Value, value: Value) -> Result<(), String> {
        let k = Key::from_value(&key)
            .ok_or_else(|| format!("invalid table key of type {}", key.type_name()))?;
        if matches!(value, Value::Nil) {
            self.map.remove(&k);
        } else {
            self.map.insert(k, value);
        }
        Ok(())
    }

    /// Reads a string key the caller already holds as an `Rc<str>`,
    /// without copying it.
    pub(crate) fn get_name(&self, key: &Rc<str>) -> Value {
        self.map
            .get(&Key::Str(key.clone()))
            .cloned()
            .unwrap_or(Value::Nil)
    }

    /// Writes a string key the caller already holds as an `Rc<str>`.
    pub(crate) fn set_name(&mut self, key: &Rc<str>, value: Value) {
        let key = Key::Str(key.clone());
        if matches!(value, Value::Nil) {
            self.map.remove(&key);
        } else {
            self.map.insert(key, value);
        }
    }

    /// Writes a string key.
    pub fn set_str(&mut self, key: &str, value: Value) {
        // String keys are always valid.
        self.set(Value::str(key), value).expect("string key");
    }

    /// Appends to the array part (`table.insert` semantics).
    pub fn push(&mut self, value: Value) {
        let next = self.len() as i64 + 1;
        if !matches!(value, Value::Nil) {
            self.map.insert(Key::Int(next), value);
        }
    }

    /// Iterates entries in deterministic (sorted-key) order.
    pub fn iter(&self) -> impl Iterator<Item = (Value, Value)> + '_ {
        self.map.iter().map(|(k, v)| (k.to_value(), v.clone()))
    }

    /// The key sorted immediately after `key`, with its value — the
    /// `next` primitive backing `pairs`.
    pub fn next_after(&self, key: Option<&Value>) -> Option<(Value, Value)> {
        match key {
            None => self
                .map
                .iter()
                .next()
                .map(|(k, v)| (k.to_value(), v.clone())),
            Some(k) => {
                let k = Key::from_value(k)?;
                self.map
                    .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                    .next()
                    .map(|(k, v)| (k.to_value(), v.clone()))
            }
        }
    }
}

impl FromIterator<(Value, Value)> for Table {
    fn from_iter<I: IntoIterator<Item = (Value, Value)>>(iter: I) -> Table {
        let mut t = Table::new();
        for (k, v) in iter {
            let _ = t.set(k, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_follows_lua() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Num(0.0).truthy());
        assert!(Value::str("").truthy());
    }

    #[test]
    fn numbers_print_like_lua() {
        assert_eq!(Value::Num(3.0).to_string(), "3");
        assert_eq!(Value::Num(3.5).to_string(), "3.5");
        assert_eq!(Value::Num(-0.0).to_string(), "0");
    }

    #[test]
    fn equality_is_by_value_for_primitives_identity_for_tables() {
        assert_eq!(Value::str("a"), Value::str("a"));
        assert_eq!(Value::Num(1.0), Value::from(1i64));
        let t1 = Value::table();
        let t2 = Value::table();
        assert_ne!(t1, t2);
        assert_eq!(t1.clone(), t1);
    }

    #[test]
    fn integral_float_keys_normalise() {
        let mut t = Table::new();
        t.set(Value::Num(1.0), Value::from("one")).unwrap();
        assert_eq!(t.get(&Value::from(1i64)), Value::from("one"));
    }

    #[test]
    fn nil_and_nan_keys_are_rejected() {
        let mut t = Table::new();
        assert!(t.set(Value::Nil, Value::from(1i64)).is_err());
        assert!(t.set(Value::Num(f64::NAN), Value::from(1i64)).is_err());
        assert_eq!(t.get(&Value::Nil), Value::Nil);
    }

    #[test]
    fn assigning_nil_removes() {
        let mut t = Table::new();
        t.set_str("k", Value::from(1i64));
        t.set(Value::str("k"), Value::Nil).unwrap();
        assert_eq!(t.get_str("k"), Value::Nil);
        assert!(t.is_empty());
    }

    #[test]
    fn len_counts_consecutive_array_part() {
        let mut t = Table::new();
        t.push(Value::from("a"));
        t.push(Value::from("b"));
        t.set(Value::from(5i64), Value::from("gap")).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_entries(), 3);
    }

    #[test]
    fn next_after_walks_all_entries() {
        let mut t = Table::new();
        t.set_str("a", Value::from(1i64));
        t.set(Value::from(1i64), Value::from(10i64)).unwrap();
        t.set_str("b", Value::from(2i64));
        let mut seen = Vec::new();
        let mut cursor: Option<Value> = None;
        while let Some((k, _)) = t.next_after(cursor.as_ref()) {
            seen.push(k.clone());
            cursor = Some(k);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn coerce_num_accepts_numeric_strings() {
        assert_eq!(Value::str(" 42 ").coerce_num(), Some(42.0));
        assert_eq!(Value::str("x").coerce_num(), None);
        assert_eq!(Value::Bool(true).coerce_num(), None);
    }

    #[test]
    fn collect_into_table() {
        let t: Table = vec![
            (Value::from(1i64), Value::from("x")),
            (Value::from(2i64), Value::from("y")),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.len(), 2);
    }
}
