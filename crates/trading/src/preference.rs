//! Import preferences: how matched offers are ordered.
//!
//! The OMG forms: `max <expr>`, `min <expr>`, `with <expr>` (offers
//! satisfying the expression first), `random`, and `first` (offer
//! registration order). The default is `first`.

use adapta_idl::Value;

use crate::constraint::{parse_expr, CVal, Expr, PropLookup};
use crate::error::TradingError;
use crate::Result;

/// A compiled preference.
///
/// ```
/// use adapta_trading::Preference;
///
/// let p = Preference::parse("min LoadAvg").unwrap();
/// assert_eq!(p.to_string(), "min LoadAvg");
/// assert_eq!(Preference::parse("").unwrap(), Preference::First);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Preference {
    /// Registration order (the default).
    #[default]
    First,
    /// Uniformly random order.
    Random,
    /// Offers maximising the expression first.
    Max(PrefExpr),
    /// Offers minimising the expression first.
    Min(PrefExpr),
    /// Offers satisfying the (boolean) expression first.
    With(PrefExpr),
}

/// A preference scoring expression (wrapped to keep the AST private).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefExpr {
    source: String,
    expr: Expr,
}

impl PrefExpr {
    /// The numeric score of an offer, `None` when evaluation fails
    /// (failed offers sort last).
    pub fn score(&self, props: &dyn PropLookup) -> Option<f64> {
        match self.expr.eval(props) {
            Ok(CVal::N(n)) if !n.is_nan() => Some(n),
            _ => None,
        }
    }

    /// The boolean value of the expression (for `with`), `None` on
    /// evaluation failure.
    pub fn holds(&self, props: &dyn PropLookup) -> Option<bool> {
        match self.expr.eval(props) {
            Ok(CVal::B(b)) => Some(b),
            _ => None,
        }
    }
}

impl Preference {
    /// Parses a preference string. Empty/blank means [`Preference::First`].
    ///
    /// # Errors
    ///
    /// Returns [`TradingError::IllegalPreference`].
    pub fn parse(source: &str) -> Result<Preference> {
        let trimmed = source.trim();
        if trimmed.is_empty() || trimmed == "first" {
            return Ok(Preference::First);
        }
        if trimmed == "random" {
            return Ok(Preference::Random);
        }
        let illegal = |reason: String| TradingError::IllegalPreference {
            preference: source.to_owned(),
            reason,
        };
        let (kind, rest) = trimmed
            .split_once(char::is_whitespace)
            .ok_or_else(|| illegal("expected `max|min|with <expr>`, `random` or `first`".into()))?;
        let expr = parse_expr(rest).map_err(illegal)?;
        let pref_expr = PrefExpr {
            source: rest.trim().to_owned(),
            expr,
        };
        match kind {
            "max" => Ok(Preference::Max(pref_expr)),
            "min" => Ok(Preference::Min(pref_expr)),
            "with" => Ok(Preference::With(pref_expr)),
            other => Err(illegal(format!("unknown preference kind `{other}`"))),
        }
    }

    /// Orders matched offers. `indexed_props[i]` are the resolved
    /// properties of the offer at position `i` (registration order);
    /// `shuffle` supplies randomness for [`Preference::Random`].
    ///
    /// Returns the positions in preferred-first order. Offers whose
    /// preference expression fails to evaluate sort after those that
    /// succeed, per the OMG rules.
    pub fn order(
        &self,
        indexed_props: &[Vec<(String, Value)>],
        shuffle: &mut dyn FnMut(&mut Vec<usize>),
    ) -> Vec<usize> {
        self.order_by(indexed_props.len(), |i| &indexed_props[i], shuffle)
    }

    /// [`order`](Preference::order) over `len` offers whose properties
    /// `props(i)` borrows where they lie. Each offer's expression is
    /// evaluated once, not once per comparison.
    pub(crate) fn order_by<'a>(
        &self,
        len: usize,
        props: impl Fn(usize) -> &'a dyn PropLookup,
        shuffle: &mut dyn FnMut(&mut Vec<usize>),
    ) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        match self {
            Preference::First => {}
            Preference::Random => shuffle(&mut order),
            Preference::Max(e) => {
                let scores: Vec<_> = (0..len).map(|i| e.score(props(i))).collect();
                order.sort_by(|&a, &b| rank_score(scores[b], scores[a]));
            }
            Preference::Min(e) => {
                let scores: Vec<_> = (0..len).map(|i| e.score(props(i))).collect();
                order.sort_by(|&a, &b| rank_score(scores[a], scores[b]));
            }
            Preference::With(e) => {
                let ranks: Vec<u8> = (0..len)
                    .map(|i| match e.holds(props(i)) {
                        Some(true) => 0,
                        Some(false) => 1,
                        None => 2,
                    })
                    .collect();
                order.sort_by_key(|&i| ranks[i]);
            }
        }
        order
    }
}

/// Compares two scores, failures last; `Equal` on ties (the sort is
/// stable, so ties keep registration order).
fn rank_score(a: Option<f64>, b: Option<f64>) -> std::cmp::Ordering {
    match (a, b) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    }
}

impl std::fmt::Display for Preference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Preference::First => write!(f, "first"),
            Preference::Random => write!(f, "random"),
            Preference::Max(e) => write!(f, "max {}", e.source),
            Preference::Min(e) => write!(f, "min {}", e.source),
            Preference::With(e) => write!(f, "with {}", e.source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offers(loads: &[Option<f64>]) -> Vec<Vec<(String, Value)>> {
        loads
            .iter()
            .map(|load| match load {
                Some(l) => vec![("LoadAvg".to_owned(), Value::from(*l))],
                None => vec![],
            })
            .collect()
    }

    fn no_shuffle(_: &mut Vec<usize>) {}

    #[test]
    fn min_orders_ascending() {
        let p = Preference::parse("min LoadAvg").unwrap();
        let props = offers(&[Some(5.0), Some(1.0), Some(3.0)]);
        assert_eq!(p.order(&props, &mut no_shuffle), vec![1, 2, 0]);
    }

    #[test]
    fn max_orders_descending() {
        let p = Preference::parse("max LoadAvg").unwrap();
        let props = offers(&[Some(5.0), Some(1.0), Some(3.0)]);
        assert_eq!(p.order(&props, &mut no_shuffle), vec![0, 2, 1]);
    }

    #[test]
    fn failed_evaluations_sort_last() {
        let p = Preference::parse("min LoadAvg").unwrap();
        let props = offers(&[None, Some(2.0), Some(1.0)]);
        assert_eq!(p.order(&props, &mut no_shuffle), vec![2, 1, 0]);
    }

    #[test]
    fn with_puts_satisfying_offers_first() {
        let p = Preference::parse("with LoadAvg < 3").unwrap();
        let props = offers(&[Some(5.0), Some(1.0), Some(2.0)]);
        let order = p.order(&props, &mut no_shuffle);
        assert_eq!(&order[..2], &[1, 2]);
        assert_eq!(order[2], 0);
    }

    #[test]
    fn first_keeps_registration_order() {
        let p = Preference::parse("first").unwrap();
        let props = offers(&[Some(5.0), Some(1.0)]);
        assert_eq!(p.order(&props, &mut no_shuffle), vec![0, 1]);
        assert_eq!(Preference::parse("  ").unwrap(), Preference::First);
    }

    #[test]
    fn random_uses_the_shuffle() {
        let p = Preference::parse("random").unwrap();
        let props = offers(&[Some(1.0), Some(2.0), Some(3.0)]);
        let mut called = false;
        let mut shuffle = |v: &mut Vec<usize>| {
            called = true;
            v.reverse();
        };
        assert_eq!(p.order(&props, &mut shuffle), vec![2, 1, 0]);
        assert!(called);
    }

    #[test]
    fn preference_can_use_arithmetic() {
        let p = Preference::parse("max LoadAvg * -1").unwrap();
        let props = offers(&[Some(5.0), Some(1.0)]);
        assert_eq!(p.order(&props, &mut no_shuffle), vec![1, 0]);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            Preference::parse("sideways LoadAvg"),
            Err(TradingError::IllegalPreference { .. })
        ));
        assert!(matches!(
            Preference::parse("min"),
            Err(TradingError::IllegalPreference { .. })
        ));
        assert!(matches!(
            Preference::parse("min (("),
            Err(TradingError::IllegalPreference { .. })
        ));
    }

    #[test]
    fn display_round_trips() {
        for src in ["first", "random", "min LoadAvg", "max A + B", "with A < 2"] {
            assert_eq!(Preference::parse(src).unwrap().to_string(), src);
        }
    }
}
