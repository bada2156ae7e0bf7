//! # orsp-world
//!
//! The synthetic world the RSP observes: a deterministic, seeded simulation
//! of users interacting with physical-world entities (restaurants, doctors,
//! service providers) over multi-year horizons.
//!
//! The paper proposes inferring opinions from passively observed activity;
//! evaluating that *requires ground truth the paper's authors never had* —
//! which is exactly what a simulator provides. Every user holds a latent
//! true opinion of every entity they meet ([`opinion`]); the activity
//! simulator ([`sim`]) turns those opinions plus persona traits into an
//! event trace (visits, phone calls, group outings, explicit reviews); the
//! rest of the system only ever sees the trace, and its inferences are
//! scored against the latent truth.
//!
//! Modules:
//!
//! * [`config`] — all generation knobs in one serializable struct;
//! * [`entity`] — entities with latent quality and comparable attributes;
//! * [`persona`] — user traits: review propensity (the 1/9/90 rule),
//!   explorer vs. creature-of-habit, dietary constraints, outing rates;
//! * [`user`] — users with home/work anchors and a persona;
//! * [`opinion`] — the ground-truth opinion model;
//! * [`events`] — the activity-event vocabulary;
//! * [`sim`] — the per-user activity generator (explore-then-settle choice
//!   process, need-driven cadence, group outings, review posting);
//! * [`attacks`] — fraud-trace injectors (§4.3): call spam, employee
//!   presence, sybil rings;
//! * [`scenario`] — canned scenarios, including the three-dentist setup of
//!   Fig. 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod config;
pub mod entity;
pub mod events;
pub mod opinion;
pub mod persona;
pub mod scenario;
pub mod sim;
pub mod user;

pub use config::WorldConfig;
pub use entity::{Entity, EntityAttributes};
pub use events::{ActivityEvent, ActivityKind, Review};
pub use opinion::OpinionModel;
pub use persona::{Persona, ReviewerClass};
pub use sim::{World, WorldStats};
pub use user::User;
