//! The trader constraint language.
//!
//! A subset of the OMG Trading Service constraint language: boolean
//! connectives (`and`, `or`, `not`), comparisons (`== != < <= > >=`),
//! substring match (`~`), existence (`exist Prop`), arithmetic
//! (`+ - * /`), numeric and string literals, and property names.
//!
//! Two deliberate accommodations to the paper's figures:
//!
//! * a bare identifier that does not name a property evaluates to the
//!   *string of its own name* — the paper writes
//!   `LoadAvgIncreasing == no` (unquoted `no`);
//! * evaluation failure (missing property, type clash) makes the offer
//!   **not match**, per the OMG rule, rather than failing the query.

use std::collections::HashMap;
use std::fmt;

use adapta_idl::Value;

use crate::error::TradingError;
use crate::Result;

/// Property resolution during constraint/preference evaluation.
///
/// Lookups borrow: evaluating a constraint copies no property value.
pub trait PropLookup {
    /// The value of `name`, or `None` when the offer lacks it.
    fn prop(&self, name: &str) -> Option<&Value>;
}

impl PropLookup for HashMap<String, Value> {
    fn prop(&self, name: &str) -> Option<&Value> {
        self.get(name)
    }
}

impl PropLookup for Vec<(String, Value)> {
    fn prop(&self, name: &str) -> Option<&Value> {
        self.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// A value produced during evaluation. Strings borrow from the
/// expression (literals, bare identifiers) or from the offer's
/// properties, so evaluation never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CVal<'a> {
    /// Boolean.
    B(bool),
    /// Number.
    N(f64),
    /// String.
    S(&'a str),
}

/// Evaluation failure: per OMG rules this silently excludes the offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EvalFail;

impl<'a> CVal<'a> {
    fn from_value(v: &'a Value) -> std::result::Result<CVal<'a>, EvalFail> {
        match v {
            Value::Bool(b) => Ok(CVal::B(*b)),
            Value::Long(n) => Ok(CVal::N(*n as f64)),
            Value::Double(d) => Ok(CVal::N(*d)),
            Value::Str(s) => Ok(CVal::S(s)),
            _ => Err(EvalFail),
        }
    }

    fn as_bool(&self) -> std::result::Result<bool, EvalFail> {
        match self {
            CVal::B(b) => Ok(*b),
            _ => Err(EvalFail),
        }
    }

    fn as_num(&self) -> std::result::Result<f64, EvalFail> {
        match self {
            CVal::N(n) => Ok(*n),
            _ => Err(EvalFail),
        }
    }
}

// ---- AST --------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    Num(f64),
    Str(String),
    Bool(bool),
    Prop(String),
    Exist(String),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Substr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl Expr {
    pub(crate) fn eval<'a>(
        &'a self,
        props: &'a dyn PropLookup,
    ) -> std::result::Result<CVal<'a>, EvalFail> {
        match self {
            Expr::Num(n) => Ok(CVal::N(*n)),
            Expr::Str(s) => Ok(CVal::S(s)),
            Expr::Bool(b) => Ok(CVal::B(*b)),
            Expr::Prop(name) => match props.prop(name) {
                Some(v) => CVal::from_value(v),
                // Paper-compatible fallback: unknown identifiers are
                // string literals (`LoadAvgIncreasing == no`).
                None => Ok(CVal::S(name)),
            },
            Expr::Exist(name) => Ok(CVal::B(props.prop(name).is_some())),
            Expr::Not(e) => Ok(CVal::B(!e.eval(props)?.as_bool()?)),
            Expr::And(a, b) => {
                if !a.eval(props)?.as_bool()? {
                    return Ok(CVal::B(false));
                }
                Ok(CVal::B(b.eval(props)?.as_bool()?))
            }
            Expr::Or(a, b) => {
                if a.eval(props)?.as_bool()? {
                    return Ok(CVal::B(true));
                }
                Ok(CVal::B(b.eval(props)?.as_bool()?))
            }
            Expr::Cmp(op, a, b) => {
                let a = a.eval(props)?;
                let b = b.eval(props)?;
                let out = match (op, &a, &b) {
                    (CmpOp::Substr, CVal::S(x), CVal::S(y)) => x.contains(y),
                    (CmpOp::Substr, _, _) => return Err(EvalFail),
                    (CmpOp::Eq, _, _) => cval_eq(&a, &b)?,
                    (CmpOp::Ne, _, _) => !cval_eq(&a, &b)?,
                    (op, CVal::N(x), CVal::N(y)) => match op {
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                        _ => unreachable!(),
                    },
                    (op, CVal::S(x), CVal::S(y)) => match op {
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                        _ => unreachable!(),
                    },
                    _ => return Err(EvalFail),
                };
                Ok(CVal::B(out))
            }
            Expr::Arith(op, a, b) => {
                let a = a.eval(props)?.as_num()?;
                let b = b.eval(props)?.as_num()?;
                Ok(CVal::N(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                }))
            }
            Expr::Neg(e) => Ok(CVal::N(-e.eval(props)?.as_num()?)),
        }
    }
}

fn cval_eq(a: &CVal, b: &CVal) -> std::result::Result<bool, EvalFail> {
    match (a, b) {
        (CVal::N(x), CVal::N(y)) => Ok(x == y),
        (CVal::S(x), CVal::S(y)) => Ok(x == y),
        (CVal::B(x), CVal::B(y)) => Ok(x == y),
        _ => Err(EvalFail),
    }
}

// ---- lexer/parser -------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Str(String),
    Op(&'static str),
    LParen,
    RParen,
}

fn lex(src: &str) -> std::result::Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] as char != quote {
                    j += 1;
                }
                if j >= b.len() {
                    return Err("unterminated string literal".into());
                }
                out.push(Tok::Str(src[start..j].to_owned()));
                i = j + 1;
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < b.len()
                    && ((b[i] as char).is_ascii_digit()
                        || b[i] == b'.'
                        || b[i] == b'e'
                        || b[i] == b'E'
                        || ((b[i] == b'+' || b[i] == b'-')
                            && i > start
                            && (b[i - 1] == b'e' || b[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &src[start..i];
                let n = text
                    .parse::<f64>()
                    .map_err(|_| format!("bad number `{text}`"))?;
                out.push(Tok::Num(n));
            }
            '=' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Op("=="));
                i += 2;
            }
            '!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Op("!="));
                i += 2;
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Op("<="));
                    i += 2;
                } else {
                    out.push(Tok::Op("<"));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Op(">="));
                    i += 2;
                } else {
                    out.push(Tok::Op(">"));
                    i += 1;
                }
            }
            '~' => {
                out.push(Tok::Op("~"));
                i += 1;
            }
            '+' => {
                out.push(Tok::Op("+"));
                i += 1;
            }
            '-' => {
                out.push(Tok::Op("-"));
                i += 1;
            }
            '*' => {
                out.push(Tok::Op("*"));
                i += 1;
            }
            '/' => {
                out.push(Tok::Op("/"));
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len()
                    && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                out.push(Tok::Ident(src[start..i].to_owned()));
            }
            other => return Err(format!("unexpected character `{other}`")),
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if let Some(Tok::Op(s)) = self.peek() {
            if *s == op {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if let Some(Tok::Ident(name)) = self.peek() {
            if name == word {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn parse_or(&mut self) -> std::result::Result<Expr, String> {
        let mut lhs = self.parse_and()?;
        while self.eat_keyword("or") {
            let rhs = self.parse_and()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> std::result::Result<Expr, String> {
        let mut lhs = self.parse_not()?;
        while self.eat_keyword("and") {
            let rhs = self.parse_not()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> std::result::Result<Expr, String> {
        if self.eat_keyword("not") {
            return Ok(Expr::Not(Box::new(self.parse_not()?)));
        }
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> std::result::Result<Expr, String> {
        let lhs = self.parse_sum()?;
        let op = match self.peek() {
            Some(Tok::Op("==")) => Some(CmpOp::Eq),
            Some(Tok::Op("!=")) => Some(CmpOp::Ne),
            Some(Tok::Op("<")) => Some(CmpOp::Lt),
            Some(Tok::Op("<=")) => Some(CmpOp::Le),
            Some(Tok::Op(">")) => Some(CmpOp::Gt),
            Some(Tok::Op(">=")) => Some(CmpOp::Ge),
            Some(Tok::Op("~")) => Some(CmpOp::Substr),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_sum()?;
            return Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn parse_sum(&mut self) -> std::result::Result<Expr, String> {
        let mut lhs = self.parse_term()?;
        loop {
            if self.eat_op("+") {
                lhs = Expr::Arith(ArithOp::Add, Box::new(lhs), Box::new(self.parse_term()?));
            } else if self.eat_op("-") {
                lhs = Expr::Arith(ArithOp::Sub, Box::new(lhs), Box::new(self.parse_term()?));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> std::result::Result<Expr, String> {
        let mut lhs = self.parse_factor()?;
        loop {
            if self.eat_op("*") {
                lhs = Expr::Arith(ArithOp::Mul, Box::new(lhs), Box::new(self.parse_factor()?));
            } else if self.eat_op("/") {
                lhs = Expr::Arith(ArithOp::Div, Box::new(lhs), Box::new(self.parse_factor()?));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> std::result::Result<Expr, String> {
        match self.peek().cloned() {
            Some(Tok::Num(n)) => {
                self.pos += 1;
                Ok(Expr::Num(n))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Str(s))
            }
            Some(Tok::Op("-")) => {
                self.pos += 1;
                Ok(Expr::Neg(Box::new(self.parse_factor()?)))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let inner = self.parse_or()?;
                if self.peek() != Some(&Tok::RParen) {
                    return Err("expected `)`".into());
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "TRUE" | "true" => Ok(Expr::Bool(true)),
                    "FALSE" | "false" => Ok(Expr::Bool(false)),
                    "exist" => match self.peek().cloned() {
                        Some(Tok::Ident(prop)) => {
                            self.pos += 1;
                            Ok(Expr::Exist(prop))
                        }
                        _ => Err("`exist` must be followed by a property name".into()),
                    },
                    _ => Ok(Expr::Prop(name)),
                }
            }
            other => Err(format!("unexpected token {other:?}")),
        }
    }
}

pub(crate) fn parse_expr(src: &str) -> std::result::Result<Expr, String> {
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err("empty expression".into());
    }
    let mut p = Parser { toks, pos: 0 };
    let expr = p.parse_or()?;
    if p.pos < p.toks.len() {
        return Err(format!("trailing tokens after expression: {:?}", p.peek()));
    }
    Ok(expr)
}

/// A compiled constraint.
///
/// ```
/// use adapta_trading::Constraint;
/// use adapta_idl::Value;
/// use std::collections::HashMap;
///
/// let c = Constraint::parse("LoadAvg < 50 and LoadAvgIncreasing == no").unwrap();
/// let mut props = HashMap::new();
/// props.insert("LoadAvg".to_owned(), Value::from(10.0));
/// props.insert("LoadAvgIncreasing".to_owned(), Value::from("no"));
/// assert!(c.matches(&props));
/// props.insert("LoadAvgIncreasing".to_owned(), Value::from("yes"));
/// assert!(!c.matches(&props));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    source: String,
    expr: Option<Expr>,
}

impl Constraint {
    /// The constraint matching every offer (empty source).
    pub fn always() -> Constraint {
        Constraint {
            source: String::new(),
            expr: None,
        }
    }

    /// Parses a constraint. Empty/blank source matches everything.
    ///
    /// # Errors
    ///
    /// Returns [`TradingError::IllegalConstraint`] with the reason.
    pub fn parse(source: &str) -> Result<Constraint> {
        if source.trim().is_empty() {
            return Ok(Constraint::always());
        }
        let expr = parse_expr(source).map_err(|reason| TradingError::IllegalConstraint {
            constraint: source.to_owned(),
            reason,
        })?;
        Ok(Constraint {
            source: source.to_owned(),
            expr: Some(expr),
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Whether an offer with these properties matches. Evaluation
    /// failures (missing property, type clash, non-boolean result) make
    /// the offer not match.
    pub fn matches(&self, props: &dyn PropLookup) -> bool {
        match &self.expr {
            None => true,
            Some(expr) => matches!(expr.eval(props), Ok(CVal::B(true))),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.source.is_empty() {
            write!(f, "TRUE")
        } else {
            write!(f, "{}", self.source)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    fn check(src: &str, pairs: &[(&str, Value)]) -> bool {
        Constraint::parse(src).unwrap().matches(&props(pairs))
    }

    #[test]
    fn comparisons() {
        let p = [("Load", Value::from(10.0))];
        assert!(check("Load < 50", &p));
        assert!(check("Load <= 10", &p));
        assert!(check("Load == 10", &p));
        assert!(check("Load != 9", &p));
        assert!(!check("Load > 10", &p));
        assert!(check("Load >= 10", &p));
    }

    #[test]
    fn long_and_double_properties_compare() {
        assert!(check("N < 5", &[("N", Value::from(3i64))]));
        assert!(check("N == 3", &[("N", Value::from(3.0))]));
    }

    #[test]
    fn boolean_connectives_and_precedence() {
        let p = [("A", Value::from(1.0)), ("B", Value::from(2.0))];
        assert!(check("A == 1 and B == 2", &p));
        assert!(check("A == 9 or B == 2", &p));
        // `and` binds tighter than `or`.
        assert!(check("A == 9 and B == 9 or B == 2", &p));
        assert!(!check("A == 9 and (B == 9 or B == 2)", &p));
        assert!(check("not A == 9", &p));
        assert!(check("not (A == 9 and B == 2)", &p));
    }

    #[test]
    fn arithmetic_in_constraints() {
        let p = [("L1", Value::from(3.0)), ("L5", Value::from(2.0))];
        assert!(check("L1 > L5", &p));
        assert!(check("L1 + L5 == 5", &p));
        assert!(check("L1 * 2 - 1 == L5 + 3", &p));
        assert!(check("-L1 < 0", &p));
        assert!(check("L1 / L5 > 1.4", &p));
    }

    #[test]
    fn string_comparison_and_substring() {
        let p = [("Host", Value::from("rio-node-7"))];
        assert!(check("Host == 'rio-node-7'", &p));
        assert!(check("Host ~ 'node'", &p));
        assert!(!check("Host ~ 'xyz'", &p));
        assert!(check("Host > 'a'", &p));
    }

    #[test]
    fn paper_unquoted_identifier_fallback() {
        // Figure 7: "LoadAvg < 50 and LoadAvgIncreasing == no "
        let c = Constraint::parse("LoadAvg < 50 and LoadAvgIncreasing == no ").unwrap();
        assert!(c.matches(&props(&[
            ("LoadAvg", Value::from(12.0)),
            ("LoadAvgIncreasing", Value::from("no")),
        ])));
        assert!(!c.matches(&props(&[
            ("LoadAvg", Value::from(12.0)),
            ("LoadAvgIncreasing", Value::from("yes")),
        ])));
    }

    #[test]
    fn exist_checks_presence() {
        assert!(check("exist Load", &[("Load", Value::from(1.0))]));
        assert!(!check("exist Load", &[]));
        assert!(check("not exist Load", &[]));
    }

    #[test]
    fn missing_property_fails_closed() {
        // `Load < 50` with no Load property: Load falls back to the
        // string "Load", string < number fails → no match.
        assert!(!check("Load < 50", &[]));
    }

    #[test]
    fn type_clash_fails_closed() {
        assert!(!check("Load < 50", &[("Load", Value::from("high"))]));
        assert!(!check("Load and TRUE", &[("Load", Value::from(1.0))]));
    }

    #[test]
    fn true_false_literals() {
        assert!(check("TRUE", &[]));
        assert!(!check("FALSE", &[]));
        assert!(check("true or FALSE", &[]));
    }

    #[test]
    fn empty_constraint_matches_everything() {
        assert!(check("", &[]));
        assert!(check("   ", &[]));
        assert_eq!(Constraint::always().to_string(), "TRUE");
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "Load <",
            "== 3",
            "(A == 1",
            "Load < 'x",
            "exist",
            "A @ B",
            "1 2",
        ] {
            let err = Constraint::parse(bad).unwrap_err();
            assert!(
                matches!(err, TradingError::IllegalConstraint { .. }),
                "{bad} should be illegal"
            );
        }
    }

    #[test]
    fn eq_on_booleans() {
        assert!(check("Up == TRUE", &[("Up", Value::from(true))]));
        assert!(!check("Up == TRUE", &[("Up", Value::from(false))]));
    }

    #[test]
    fn dotted_property_names() {
        assert!(check(
            "net.bandwidth >= 100",
            &[("net.bandwidth", Value::from(150.0))]
        ));
    }
}
