//! EECS mission serving: a deterministic multi-tenant front end over
//! the simulation core.
//!
//! The ROADMAP's north star is a service that multiplexes many
//! detection missions over shared compute — the shape of edge-serving
//! systems like ECORE and LEAF, where a front end routes detection
//! requests across devices under energy budgets. This crate is that
//! first serving layer:
//!
//! * [`MissionRequest`] — what a tenant submits: per-mission knobs on a
//!   shared prepared base [`eecs_core::simulation::Simulation`], plus
//!   priority, deadline and declared cost ([`request`]);
//! * [`plan_schedule`] — admission control and priority/deadline
//!   scheduling on a seeded virtual clock, a pure function of
//!   `(seed, request list)` ([`schedule`]);
//! * [`MissionService`] — concurrent execution on `eecs_core::par`
//!   workers, CRC32 wire framing for every request/response, a
//!   kill/resume journal, and the byte-stable service trace
//!   ([`service`]);
//! * [`ServiceInvariants`] — the named-rule audit battery the soak
//!   tests run over whole batches ([`invariants`]).
//!
//! The contract mirrors the rest of the workspace: everything the
//! service *decides* is deterministic and replays bit-identically under
//! any worker count; only wall-clock time changes with parallelism.

pub mod invariants;
pub mod request;
pub mod schedule;
pub mod service;

pub use invariants::{ServiceAudit, ServiceContext, ServiceInvariants, ServiceRule};
pub use request::{MissionRequest, MissionSpec, Priority, Rejected};
pub use schedule::{
    arrival_tick, plan_schedule, MissionOutcome, MissionVerdict, Schedule, ServiceConfig,
    ServiceEvent,
};
pub use service::{
    BatchOptions, BatchOutcome, CompletedMission, MissionService, ServiceRun, TenantSummary,
    JOURNAL_SCHEMA, TRACE_SCHEMA,
};
