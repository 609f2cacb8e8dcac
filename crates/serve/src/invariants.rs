//! Service-level invariant rules: the mission-service domain of
//! [`eecs_core::testkit::RuleChecker`].
//!
//! The service audits a whole batch rather than one simulation run, so
//! it brings its own context ([`ServiceContext`]) and rule set, and
//! shares the named-rule checker with the simulation-run auditor. Soak
//! tests run both: this checker over the batch, and the core
//! [`eecs_core::testkit::InvariantChecker`] over each mission's fresh
//! report.

use crate::request::MissionRequest;
use crate::schedule::{MissionVerdict, ServiceConfig};
use crate::service::ServiceRun;
use eecs_core::telemetry::Telemetry;
use eecs_core::testkit::{AuditDomain, Rule, RuleChecker};

/// Everything a service rule may inspect.
pub struct ServiceContext<'a> {
    /// The service's static configuration.
    pub config: &'a ServiceConfig,
    /// The submitted batch, in order.
    pub requests: &'a [MissionRequest],
    /// The assembled run under audit.
    pub run: &'a ServiceRun,
    /// The service's telemetry handle (rules skip counter checks when
    /// it is a null handle).
    pub telemetry: &'a Telemetry,
}

/// The mission-service audit domain: rules read a [`ServiceContext`].
pub struct ServiceAudit;

impl AuditDomain for ServiceAudit {
    type Context<'a> = ServiceContext<'a>;
    const VIOLATION_HEADER: &'static str = "service invariants violated";

    /// The default battery: admission conservation, queue bounds,
    /// same-tenant priority order, counter/event agreement, deadline
    /// accounting.
    fn register_defaults(inv: &mut ServiceInvariants) {
        inv.add_rule("admission-conservation", admission_conservation);
        inv.add_rule("queue-bounds", queue_bounds);
        inv.add_rule("priority-order", priority_order);
        inv.add_rule("counter-event-agreement", counter_event_agreement);
        inv.add_rule("deadline-accounting", deadline_accounting);
    }
}

/// One named service rule: returns a violation message per failure,
/// empty when clean.
pub type ServiceRule = Rule<ServiceAudit>;

/// A named collection of service rules.
pub type ServiceInvariants = RuleChecker<ServiceAudit>;

/// admitted + rejected == submitted, and every admitted mission has
/// exactly one completion record.
fn admission_conservation(ctx: &ServiceContext<'_>) -> Vec<String> {
    let mut v = Vec::new();
    let run = ctx.run;
    let admitted = run.schedule.admitted();
    let rejected = run.schedule.rejections().len();
    if admitted.len() + rejected != ctx.requests.len() {
        v.push(format!(
            "{} admitted + {} rejected != {} submitted",
            admitted.len(),
            rejected,
            ctx.requests.len()
        ));
    }
    if run.completed.len() != admitted.len() {
        v.push(format!(
            "{} completions for {} admissions",
            run.completed.len(),
            admitted.len()
        ));
    }
    for m in &admitted {
        if run.completion(*m).is_none() {
            v.push(format!("admitted mission {m} has no completion record"));
        }
    }
    for (name, t) in &run.tenants {
        if t.admitted + t.rejected != t.submitted {
            v.push(format!("tenant {name}: admitted + rejected != submitted"));
        }
    }
    v
}

/// The queue never exceeded its capacity, and no tenant ever held more
/// in-flight (running + queued) missions than its cap.
fn queue_bounds(ctx: &ServiceContext<'_>) -> Vec<String> {
    let mut v = Vec::new();
    let run = ctx.run;
    if run.schedule.max_queue_depth > ctx.config.queue_capacity {
        v.push(format!(
            "queue depth {} exceeded capacity {}",
            run.schedule.max_queue_depth, ctx.config.queue_capacity
        ));
    }
    // An admitted mission is in flight over [arrival, finish); audit
    // each tenant's overlap count at every one of its arrival ticks.
    let cap = ctx.config.tenant_inflight_cap.max(1);
    for probe in &run.schedule.outcomes {
        let MissionVerdict::Admitted { .. } = probe.verdict else {
            continue;
        };
        let t = probe.arrival_tick;
        let inflight = run
            .schedule
            .outcomes
            .iter()
            .filter(|o| o.tenant == probe.tenant)
            .filter(|o| match o.verdict {
                MissionVerdict::Admitted { finish_tick, .. } => {
                    o.arrival_tick <= t && t < finish_tick
                }
                MissionVerdict::Rejected(_) => false,
            })
            .count();
        if inflight > cap {
            v.push(format!(
                "tenant {} held {inflight} in-flight missions at tick {t} (cap {cap})",
                probe.tenant
            ));
        }
    }
    v
}

/// No same-tenant priority inversion: a higher-priority mission that
/// arrived before a lower-priority one started must start no later.
fn priority_order(ctx: &ServiceContext<'_>) -> Vec<String> {
    let mut v = Vec::new();
    let outcomes = &ctx.run.schedule.outcomes;
    for hi in outcomes {
        let MissionVerdict::Admitted {
            start_tick: hi_start,
            ..
        } = hi.verdict
        else {
            continue;
        };
        for lo in outcomes {
            if hi.mission == lo.mission || hi.tenant != lo.tenant {
                continue;
            }
            let MissionVerdict::Admitted {
                start_tick: lo_start,
                ..
            } = lo.verdict
            else {
                continue;
            };
            let hi_req = &ctx.requests[hi.mission];
            let lo_req = &ctx.requests[lo.mission];
            if hi_req.priority > lo_req.priority
                && hi.arrival_tick < lo_start
                && hi_start > lo_start
            {
                v.push(format!(
                    "mission {} ({}) started at {} before waiting higher-priority {} (started {})",
                    lo.mission,
                    lo_req.priority.label(),
                    lo_start,
                    hi.mission,
                    hi_start
                ));
            }
        }
    }
    v
}

/// The service counters agree with the run's own accounting. Skipped
/// entirely under a null telemetry handle.
fn counter_event_agreement(ctx: &ServiceContext<'_>) -> Vec<String> {
    if !ctx.telemetry.enabled() {
        return Vec::new();
    }
    let metrics = ctx.telemetry.metrics();
    let run = ctx.run;
    let mut v = Vec::new();
    let admitted = run.schedule.admitted().len() as u64;
    let rejected = run.schedule.rejections().len() as u64;
    let missed = run.completed.iter().filter(|c| !c.deadline_met).count() as u64;
    for (name, want) in [
        ("serve.admitted", admitted),
        ("serve.rejected", rejected),
        ("serve.completed", run.completed.len() as u64),
        ("serve.deadline_missed", missed),
    ] {
        let got = metrics.counter(name);
        if got != want {
            v.push(format!("counter {name} = {got}, run says {want}"));
        }
    }
    for (tenant, t) in &run.tenants {
        let got = metrics.counter(&format!("serve.admitted.{tenant}"));
        if got != t.admitted {
            v.push(format!(
                "counter serve.admitted.{tenant} = {got}, run says {}",
                t.admitted
            ));
        }
    }
    v
}

/// `deadline_met` in every record matches the virtual-clock arithmetic,
/// and tenant summaries count the misses correctly.
fn deadline_accounting(ctx: &ServiceContext<'_>) -> Vec<String> {
    let mut v = Vec::new();
    for c in &ctx.run.completed {
        let req = &ctx.requests[c.mission];
        let arrival = ctx.run.schedule.outcomes[c.mission].arrival_tick;
        let want = match req.deadline_ticks {
            Some(d) => c.finished_tick - arrival <= d,
            None => true,
        };
        if c.deadline_met != want {
            v.push(format!(
                "mission {} deadline_met = {}, clock says {want}",
                c.mission, c.deadline_met
            ));
        }
    }
    let missed: u64 = ctx.run.tenants.values().map(|t| t.deadline_missed).sum();
    let actual = ctx.run.completed.iter().filter(|c| !c.deadline_met).count() as u64;
    if missed != actual {
        v.push(format!(
            "tenant summaries count {missed} deadline misses, completions show {actual}"
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rules_are_registered_in_order() {
        let inv = ServiceInvariants::with_defaults();
        assert_eq!(
            inv.rule_names(),
            vec![
                "admission-conservation",
                "queue-bounds",
                "priority-order",
                "counter-event-agreement",
                "deadline-accounting",
            ]
        );
    }
}
