//! A trading object service — the OMG Trading Service analogue the
//! paper builds its dynamic component selection on.
//!
//! Servers *export* [`ServiceOffer`]s: an object reference plus a set of
//! nonfunctional properties, described by a [`ServiceTypeDef`]. Clients
//! *import*: they [`query`](Trader::query) with a **constraint** over
//! those properties (e.g. `LoadAvg < 50 and LoadAvgIncreasing == no`), a
//! **preference** ordering the matches (`min LoadAvg`), and import
//! **policies** (cardinality caps, federation hop count, whether to
//! evaluate dynamic properties).
//!
//! The feature doing the heavy lifting for auto-adaptation is the
//! **dynamic property** ([`PropValue::Dynamic`]): instead of a stored
//! value, an offer carries a reference to an object that is invoked at
//! query time (`evalDP`) for the *current* value — in this workspace,
//! usually a monitor from `adapta-monitor`.
//!
//! ```
//! use adapta_trading::{Trader, ServiceTypeDef, PropDef, PropMode, ExportRequest, Query};
//! use adapta_idl::{TypeCode, Value, ObjRefData};
//! use adapta_orb::Orb;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let orb = Orb::new("trader-node");
//! let trader = Trader::new(&orb);
//! trader.add_type(
//!     ServiceTypeDef::new("HelloService")
//!         .with_property(PropDef::new("LoadAvg", TypeCode::Double, PropMode::Mandatory))
//! )?;
//! let offer_ref = ObjRefData::new("inproc://server", "hello", "HelloService");
//! trader.export(ExportRequest::new("HelloService", offer_ref)
//!     .with_property("LoadAvg", Value::from(12.5)))?;
//!
//! let matches = trader.query(&Query::new("HelloService")
//!     .constraint("LoadAvg < 50")
//!     .preference("min LoadAvg"))?;
//! assert_eq!(matches.len(), 1);
//! # Ok(())
//! # }
//! ```

mod constraint;
mod error;
mod link;
mod offer;
mod preference;
mod query;
mod servant;
mod service_type;
mod standing;
mod trader;

pub use constraint::{Constraint, PropLookup};
pub use error::TradingError;
pub use link::Link;
pub use offer::{ExportRequest, OfferId, OfferMatch, PropValue, ServiceOffer};
pub use preference::Preference;
pub use query::{Policies, Query};
pub use servant::{RemoteTrader, TraderServant, TradingService};
pub use service_type::{PropDef, PropMode, ServiceTypeDef};
pub use trader::{
    Trader, MAX_HOP_COUNT, MAX_RETURN_CARD, MAX_SEARCH_CARD, MAX_SEEN_REQUESTS, SEEN_REQUEST_TTL,
};

/// Result alias for trading operations.
pub type Result<T> = std::result::Result<T, TradingError>;
