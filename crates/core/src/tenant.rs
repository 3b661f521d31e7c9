//! Multi-tenant traffic shaping: per-tenant spend accounting with
//! configurable fairness weights and a weighted deficit-style
//! scheduler (ROADMAP item 5c).
//!
//! The paper's deployment serves **many customers** from one shared
//! engine; nothing in PRs 5–9 stopped a single abusive tenant from
//! draining a whole lane window and starving everyone else. This
//! module adds the demand-side controls:
//!
//! * [`TenantRegistry`] — interns tenant names to cheap [`TenantId`]s
//!   and tracks, per tenant and per [`TrafficLane`], cumulative spend,
//!   serving counters, and a **deficit counter** in the style of
//!   weighted deficit round-robin: every lane window grants each
//!   tenant a quantum proportional to its fairness weight (with a
//!   bounded burst carryover), and every request charge drains it.
//! * [`TrafficShaper`] — the two [`LaneLedger`]s plus the registry,
//!   consulted by both the server's admission path and the
//!   [`AnnotationService`](crate::service::AnnotationService) batch
//!   scheduler. An **in-quota** tenant (deficit remaining) draws on
//!   the lane window like any request today, bounded by its deficit
//!   and by what the other tenants are still owed of the current
//!   window's quanta.
//!   An **over-quota** tenant is capped at its weight share of the
//!   lane's *unreserved* remainder — the remainder minus the deficits
//!   still owed to in-quota tenants — so heavy tenants degrade first
//!   while light tenants keep finding their entitlement in the
//!   window. Shedding order under queue pressure follows the same
//!   story: over-quota crawl traffic is refused at a quarter of queue
//!   capacity, in-quota crawl and over-quota interactive at half, and
//!   in-quota interactive only when the queue is genuinely full.
//!
//! Shaping changes **scheduling and shedding, never results**: a step
//! that runs computes exactly what it would have computed unshapen;
//! tighter caps only make degradation (which removes votes, never
//! fabricates) engage earlier for the tenants that earned it.

use crate::request::{AnnotationOutcome, BudgetLedger, RequestOptions};
use crate::service::{BoundedQueue, LaneLedger, QueueRejection, TrafficLane};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The tenant name assumed when a request does not identify itself
/// (e.g. no `x-sigma-tenant` header): all anonymous traffic shares one
/// account with weight [`DEFAULT_WEIGHT`].
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// Fairness weight assigned to tenants interned without an explicit
/// [`TenantRegistry::register`] call.
pub const DEFAULT_WEIGHT: f64 = 1.0;

/// How many window quanta a tenant's deficit may accumulate: a briefly
/// idle tenant can burst up to this many windows' worth of entitlement
/// before the cap bites.
pub const BURST_WINDOWS: f64 = 2.0;

/// A registry-scoped tenant handle: a dense index into the
/// [`TenantRegistry`] that interned it. `Copy` so it rides inside
/// [`RequestOptions`] without disturbing that struct's `Copy`
/// contract. Ids are only meaningful against the registry that
/// produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The dense registry slot this id names.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-lane accounting of one tenant.
#[derive(Debug, Default)]
struct TenantLaneAccount {
    /// Deficit-round-robin credit remaining in the current window
    /// regime (replenished by `quantum × weight-share` per window roll,
    /// capped at [`BURST_WINDOWS`] quanta, drained by charges).
    deficit_nanos: u64,
    /// Cumulative nanoseconds of step work charged to this tenant on
    /// this lane, across all windows. Monotone, for metrics.
    spent_nanos: u64,
    /// Nanoseconds charged since the lane window last rolled: what the
    /// tenant already took of its quantum in the current window.
    window_spent_nanos: u64,
    /// Caps granted to this tenant's running requests and not yet
    /// settled: budget already promised, though not yet charged.
    held_nanos: u64,
    served: u64,
    shed: u64,
    degraded: u64,
}

#[derive(Debug)]
struct TenantAccount {
    name: String,
    weight: f64,
    lanes: [TenantLaneAccount; 2],
}

/// Per-lane shaping state: which [`LaneLedger`] window the registry
/// last replenished deficits for, and that window's budget.
#[derive(Debug, Default)]
struct LaneShapingState {
    /// `None` until the lane is first observed.
    last_seq: Option<u64>,
    window_budget: Option<u64>,
}

#[derive(Debug)]
struct RegistryInner {
    names: HashMap<String, u32>,
    accounts: Vec<TenantAccount>,
    lanes: [LaneShapingState; 2],
    total_weight: f64,
}

/// A point-in-time view of one tenant's per-lane accounting, for
/// metrics endpoints and load-lab reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLaneSnapshot {
    /// Which lane the counters belong to.
    pub lane: TrafficLane,
    /// Cumulative charged step work.
    pub spent_nanos: u64,
    /// Deficit credit remaining.
    pub deficit_nanos: u64,
    /// Requests served (a batch counts once).
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Outcomes that degraded (skipped or truncated steps).
    pub degraded: u64,
    /// Whether the tenant is currently over quota on this lane.
    pub over_quota: bool,
}

/// A point-in-time view of one tenant, for metrics and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// The tenant's registry handle.
    pub id: TenantId,
    /// The interned name.
    pub name: String,
    /// The fairness weight.
    pub weight: f64,
    /// Per-lane counters, in [`TrafficLane::ALL`] order.
    pub lanes: [TenantLaneSnapshot; 2],
}

/// Interns tenant names, holds fairness weights, and runs the
/// weighted deficit bookkeeping described in the [module docs](self).
///
/// With `fairness` disabled (see
/// [`accounting_only`](TenantRegistry::accounting_only)) the registry
/// still tracks per-tenant spend and counters — the load lab's
/// *unshapen baseline* — but never declares anyone over quota and
/// never caps a budget.
#[derive(Debug)]
pub struct TenantRegistry {
    inner: Mutex<RegistryInner>,
    burst_windows: f64,
    fairness: bool,
}

impl Default for TenantRegistry {
    fn default() -> Self {
        TenantRegistry::new()
    }
}

impl TenantRegistry {
    /// A registry with fairness shaping enabled and the default burst
    /// allowance.
    #[must_use]
    pub fn new() -> Self {
        TenantRegistry::with_fairness(true)
    }

    /// A registry that tracks spend and counters but never shapes:
    /// [`over_quota`](TenantRegistry::over_quota) is always `false`
    /// and [`effective_cap`](TenantRegistry::effective_cap) never
    /// tightens a budget. The load lab's unshapen baseline runs on
    /// this so its per-tenant report comes from the same bookkeeping.
    #[must_use]
    pub fn accounting_only() -> Self {
        TenantRegistry::with_fairness(false)
    }

    fn with_fairness(fairness: bool) -> Self {
        TenantRegistry {
            inner: Mutex::new(RegistryInner {
                names: HashMap::new(),
                accounts: Vec::new(),
                lanes: [LaneShapingState::default(), LaneShapingState::default()],
                total_weight: 0.0,
            }),
            burst_windows: BURST_WINDOWS,
            fairness,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Intern `name`, creating the tenant with [`DEFAULT_WEIGHT`] on
    /// first sight. New tenants start with a full burst of deficit on
    /// every budgeted lane, so a newcomer is never over quota before
    /// it has spent anything.
    pub fn intern(&self, name: &str) -> TenantId {
        let mut inner = self.lock();
        if let Some(&idx) = inner.names.get(name) {
            return TenantId(idx);
        }
        self.insert_locked(&mut inner, name, DEFAULT_WEIGHT)
    }

    /// Intern `name` with an explicit fairness weight (clamped to a
    /// small positive minimum; weights are relative, not absolute).
    /// Re-registering an existing tenant updates its weight.
    pub fn register(&self, name: &str, weight: f64) -> TenantId {
        let weight = sanitize_weight(weight);
        let mut inner = self.lock();
        if let Some(&idx) = inner.names.get(name) {
            let old = inner.accounts[idx as usize].weight;
            inner.accounts[idx as usize].weight = weight;
            inner.total_weight += weight - old;
            return TenantId(idx);
        }
        self.insert_locked(&mut inner, name, weight)
    }

    fn insert_locked(&self, inner: &mut RegistryInner, name: &str, weight: f64) -> TenantId {
        let idx = u32::try_from(inner.accounts.len()).expect("tenant count fits u32");
        inner.names.insert(name.to_owned(), idx);
        inner.total_weight += weight;
        let mut account = TenantAccount {
            name: name.to_owned(),
            weight,
            lanes: [TenantLaneAccount::default(), TenantLaneAccount::default()],
        };
        // Full burst grant on every already-observed budgeted lane: a
        // tenant's first request must never be treated as over quota.
        let total = inner.total_weight;
        for lane in TrafficLane::ALL {
            if let Some(budget) = inner.lanes[lane_index(lane)].window_budget {
                let quantum = quantum_nanos(budget, weight, total);
                account.lanes[lane_index(lane)].deficit_nanos =
                    scale_nanos(quantum, self.burst_windows);
            }
        }
        inner.accounts.push(account);
        TenantId(idx)
    }

    /// Look up an already-interned tenant.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<TenantId> {
        self.lock().names.get(name).copied().map(TenantId)
    }

    /// The interned name of `id` (`None` for a foreign id).
    #[must_use]
    pub fn name(&self, id: TenantId) -> Option<String> {
        self.lock().accounts.get(id.index()).map(|a| a.name.clone())
    }

    /// The fairness weight of `id` (`None` for a foreign id).
    #[must_use]
    pub fn weight(&self, id: TenantId) -> Option<f64> {
        self.lock().accounts.get(id.index()).map(|a| a.weight)
    }

    /// Number of interned tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().accounts.len()
    }

    /// Whether no tenant has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sync the registry with a lane's live window: when the
    /// [`LaneLedger`] has rolled since the last observation (or its
    /// budget is seen for the first time), every tenant's deficit on
    /// that lane is replenished by one weight-share quantum per rolled
    /// window, capped at the burst allowance. Cheap no-op when the
    /// window is unchanged.
    pub fn observe_window(&self, lane: TrafficLane, seq: u64, window_budget: Option<u64>) {
        let mut inner = self.lock();
        let li = lane_index(lane);
        let state = &inner.lanes[li];
        let first = state.last_seq.is_none() || state.window_budget != window_budget;
        let rolled = state.last_seq.map_or(0, |last| seq.saturating_sub(last));
        if !first && rolled == 0 {
            return;
        }
        inner.lanes[li].last_seq = Some(seq);
        inner.lanes[li].window_budget = window_budget;
        let Some(budget) = window_budget else { return };
        // A first observation (or a budget change) grants the full
        // burst; later rolls add one quantum per elapsed window. The
        // cap makes the distinction soft: nobody can hoard more than
        // `burst_windows` quanta either way.
        let grants = if first {
            self.burst_windows
        } else {
            (rolled as f64).min(self.burst_windows)
        };
        let total = inner.total_weight;
        for account in &mut inner.accounts {
            let quantum = quantum_nanos(budget, account.weight, total);
            let cap = scale_nanos(quantum, self.burst_windows);
            let grant = scale_nanos(quantum, grants);
            let lane_acct = &mut account.lanes[li];
            lane_acct.deficit_nanos = lane_acct.deficit_nanos.saturating_add(grant).min(cap);
            lane_acct.window_spent_nanos = 0;
        }
    }

    /// Charge `nanos` of step work to `id` on `lane`: drains the
    /// deficit (saturating) and grows the cumulative spend.
    pub fn charge(&self, id: TenantId, lane: TrafficLane, nanos: u64) {
        let mut inner = self.lock();
        let Some(account) = inner.accounts.get_mut(id.index()) else {
            return;
        };
        let lane_acct = &mut account.lanes[lane_index(lane)];
        lane_acct.spent_nanos = lane_acct.spent_nanos.saturating_add(nanos);
        lane_acct.window_spent_nanos = lane_acct.window_spent_nanos.saturating_add(nanos);
        lane_acct.deficit_nanos = lane_acct.deficit_nanos.saturating_sub(nanos);
    }

    /// Is `id` over quota on `lane` — deficit fully drained on a
    /// budgeted lane? Always `false` with fairness disabled, on
    /// unbudgeted lanes, and for foreign ids.
    #[must_use]
    pub fn over_quota(&self, id: TenantId, lane: TrafficLane) -> bool {
        if !self.fairness {
            return false;
        }
        let inner = self.lock();
        if inner.lanes[lane_index(lane)].window_budget.is_none() {
            return false;
        }
        inner
            .accounts
            .get(id.index())
            .is_some_and(|a| a.lanes[lane_index(lane)].deficit_nanos == 0)
    }

    /// The per-request budget cap shaping imposes on `id` given the
    /// lane window's remainder — `None` means *no cap* (share the lane
    /// ledger exactly as an unshapen request would):
    ///
    /// * unbudgeted lane, fairness disabled, or foreign id → no cap;
    /// * **in quota** (deficit left) → capped at the deficit and at the
    ///   lane remainder minus what every other tenant is still owed of
    ///   this window (the unspent part of its quantum, at most its
    ///   deficit), but only when that is actually tighter than the lane
    ///   remainder. Burst credit lets the deficits add up to more than
    ///   the window, so without this reservation one in-quota tenant
    ///   could drain the window another in-quota tenant is still owed;
    /// * **over quota** → weight share of the lane remainder *minus*
    ///   the deficits still owed to in-quota tenants (their
    ///   reservation), which can be 0: the request runs fully
    ///   degraded and cheap instead of eating reserved budget.
    ///
    /// Caps held by running requests (see
    /// [`TrafficShaper::request_budget`]) count as spent: they come off
    /// the lane remainder and off their tenant's deficit, so concurrent
    /// requests cannot each be granted the same room.
    #[must_use]
    pub fn effective_cap(
        &self,
        id: TenantId,
        lane: TrafficLane,
        lane_remaining: Option<u64>,
    ) -> Option<u64> {
        if !self.fairness {
            return None;
        }
        effective_cap_locked(&self.lock(), id, lane_index(lane), lane_remaining?)
    }

    /// [`effective_cap`](TenantRegistry::effective_cap) bounded by
    /// `limit`, held against `id`'s account until
    /// [`release`](TenantRegistry::release)d — computed and held under
    /// one lock, so two concurrent grants see each other.
    fn hold_cap(
        &self,
        id: TenantId,
        lane: TrafficLane,
        lane_remaining: Option<u64>,
        limit: u64,
    ) -> Option<u64> {
        if !self.fairness {
            return None;
        }
        let remaining = lane_remaining?;
        let li = lane_index(lane);
        let mut inner = self.lock();
        let held = effective_cap_locked(&inner, id, li, remaining)?.min(limit);
        let lane_acct = &mut inner.accounts[id.index()].lanes[li];
        lane_acct.held_nanos = lane_acct.held_nanos.saturating_add(held);
        Some(held)
    }

    /// Release a cap [`hold_cap`](TenantRegistry::hold_cap) held.
    fn release(&self, id: TenantId, lane: TrafficLane, nanos: u64) {
        let mut inner = self.lock();
        if let Some(account) = inner.accounts.get_mut(id.index()) {
            let lane_acct = &mut account.lanes[lane_index(lane)];
            lane_acct.held_nanos = lane_acct.held_nanos.saturating_sub(nanos);
        }
    }

    /// Count one served request for `id` on `lane`, plus how many of
    /// its outcomes degraded.
    pub fn record_served(&self, id: TenantId, lane: TrafficLane, degraded_outcomes: u64) {
        let mut inner = self.lock();
        if let Some(account) = inner.accounts.get_mut(id.index()) {
            let lane_acct = &mut account.lanes[lane_index(lane)];
            lane_acct.served += 1;
            lane_acct.degraded += degraded_outcomes;
        }
    }

    /// Count one shed (refused at admission) request for `id` on
    /// `lane`.
    pub fn record_shed(&self, id: TenantId, lane: TrafficLane) {
        let mut inner = self.lock();
        if let Some(account) = inner.accounts.get_mut(id.index()) {
            account.lanes[lane_index(lane)].shed += 1;
        }
    }

    /// Point-in-time snapshots of every tenant, in intern order — the
    /// `/metrics` and load-lab reporting surface.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        let inner = self.lock();
        inner
            .accounts
            .iter()
            .enumerate()
            .map(|(idx, account)| TenantSnapshot {
                id: TenantId(idx as u32),
                name: account.name.clone(),
                weight: account.weight,
                lanes: TrafficLane::ALL.map(|lane| {
                    let li = lane_index(lane);
                    let a = &account.lanes[li];
                    TenantLaneSnapshot {
                        lane,
                        spent_nanos: a.spent_nanos,
                        deficit_nanos: a.deficit_nanos,
                        served: a.served,
                        shed: a.shed,
                        degraded: a.degraded,
                        over_quota: self.fairness
                            && inner.lanes[li].window_budget.is_some()
                            && a.deficit_nanos == 0,
                    }
                }),
            })
            .collect()
    }
}

/// The admission cutoff for a request class, as a fraction of queue
/// capacity: the request is shed once the queue is at least this full.
/// Encodes the degradation order — *crawl before interactive, heavy
/// tenants before light ones*:
///
/// | lane        | over quota | cutoff |
/// |-------------|------------|--------|
/// | crawl       | yes        | 0.25   |
/// | crawl       | no         | 0.5    |
/// | interactive | yes        | 0.5    |
/// | interactive | no         | 1.0    |
#[must_use]
pub fn admission_cutoff(lane: TrafficLane, over_quota: bool) -> f64 {
    match (lane, over_quota) {
        (TrafficLane::Crawl, true) => 0.25,
        (TrafficLane::Crawl, false) | (TrafficLane::Interactive, true) => 0.5,
        (TrafficLane::Interactive, false) => 1.0,
    }
}

/// Per-lane serving counters, shared by the HTTP server and the load
/// lab's in-process driver. `served`/`shed` count *requests* (a batch
/// is one request); together they account for every arrival.
#[derive(Debug, Default)]
pub struct LaneCounters {
    served: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    delta_reused: AtomicU64,
}

impl LaneCounters {
    /// Count one served request with `degraded` degraded outcomes and
    /// `delta_reused` base-crawl reuses among them.
    pub fn record_served(&self, degraded: u64, delta_reused: u64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.degraded.fetch_add(degraded, Ordering::Relaxed);
        self.delta_reused.fetch_add(delta_reused, Ordering::Relaxed);
    }

    /// Count one request shed at admission.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests served.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Requests shed.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Outcomes that degraded.
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// `(step, column)` pairs answered from base-crawl cache entries.
    #[must_use]
    pub fn delta_reused(&self) -> u64 {
        self.delta_reused.load(Ordering::Relaxed)
    }
}

/// How one shaped request should source its budget (see
/// [`TrafficShaper::request_budget`]).
#[derive(Debug)]
pub enum ShapedBudget {
    /// Charge the lane's shared window ledger directly — the unshapen
    /// path: concurrent lane traffic collectively drains one budget.
    Shared(Arc<BudgetLedger>),
    /// Run under a private ledger of `cap_nanos` and charge the spend
    /// back to `lane` afterwards (via
    /// [`TrafficShaper::settle`]) — the path of explicit request
    /// budgets and of tenant caps.
    Local {
        /// The request's private allowance.
        cap_nanos: u64,
        /// The lane window ledger to charge the spend back to.
        lane: Arc<BudgetLedger>,
        /// How much of `cap_nanos` is held against the tenant's
        /// account until [`TrafficShaper::settle`]: all of it when
        /// shaping capped the tenant, else 0.
        held_nanos: u64,
    },
}

/// The two lane ledgers, their serving counters, and the tenant
/// registry — one shaping decision surface consulted by the HTTP
/// server's admission/serve path and the load lab's in-process driver,
/// so both enforce byte-for-byte the same policy.
#[derive(Debug)]
pub struct TrafficShaper {
    lanes: [ShapedLane; 2],
    registry: Arc<TenantRegistry>,
}

#[derive(Debug)]
struct ShapedLane {
    ledger: LaneLedger,
    counters: LaneCounters,
}

impl TrafficShaper {
    /// A shaper over `registry` with the given per-lane window budgets
    /// (`None` = unbudgeted) and window length.
    #[must_use]
    pub fn new(
        registry: Arc<TenantRegistry>,
        interactive_budget_nanos: Option<u64>,
        crawl_budget_nanos: Option<u64>,
        window: Duration,
    ) -> Self {
        TrafficShaper {
            lanes: [
                ShapedLane {
                    ledger: LaneLedger::new(
                        TrafficLane::Interactive,
                        interactive_budget_nanos,
                        window,
                    ),
                    counters: LaneCounters::default(),
                },
                ShapedLane {
                    ledger: LaneLedger::new(TrafficLane::Crawl, crawl_budget_nanos, window),
                    counters: LaneCounters::default(),
                },
            ],
            registry,
        }
    }

    /// The tenant registry behind this shaper.
    #[must_use]
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// The window ledger of `lane`.
    #[must_use]
    pub fn lane_ledger(&self, lane: TrafficLane) -> &LaneLedger {
        &self.lanes[lane_index(lane)].ledger
    }

    /// The serving counters of `lane`.
    #[must_use]
    pub fn counters(&self, lane: TrafficLane) -> &LaneCounters {
        &self.lanes[lane_index(lane)].counters
    }

    /// Sync the registry's deficits with `lane`'s live window and
    /// return that window's shared ledger.
    fn synced_ledger(&self, lane: TrafficLane) -> Arc<BudgetLedger> {
        let lane_state = &self.lanes[lane_index(lane)];
        let (ledger, seq) = lane_state.ledger.ledger_with_seq();
        self.registry
            .observe_window(lane, seq, lane_state.ledger.window_budget());
        ledger
    }

    /// Is `tenant` currently over quota on `lane` (deficits synced to
    /// the live window first)?
    #[must_use]
    pub fn over_quota(&self, lane: TrafficLane, tenant: TenantId) -> bool {
        let _ = self.synced_ledger(lane);
        self.registry.over_quota(tenant, lane)
    }

    /// Lane- and tenant-aware admission: shed once the queue is at
    /// least [`admission_cutoff`] full for this request class (the
    /// push itself backstops genuinely-full and closed queues). A shed
    /// is counted against the lane and the tenant; an admitted job is
    /// not counted until served.
    pub fn admit<T>(
        &self,
        queue: &BoundedQueue<T>,
        lane: TrafficLane,
        tenant: TenantId,
        job: T,
    ) -> Result<(), QueueRejection> {
        let cutoff = admission_cutoff(lane, self.over_quota(lane, tenant));
        let threshold = scale_capacity(queue.capacity(), cutoff);
        let result = if cutoff < 1.0 && queue.len() >= threshold {
            Err(QueueRejection::Full)
        } else {
            queue.push(job).map_err(|(_, why)| why)
        };
        if result.is_err() {
            self.counters(lane).record_shed();
            self.registry.record_shed(tenant, lane);
        }
        result
    }

    /// Resolve how a request from `tenant` on `lane` with an optional
    /// explicit budget should source its allowance. The decision
    /// composes three bounds — lane window remainder, tenant shaping
    /// cap, explicit request budget — and preserves the unshapen
    /// contract exactly when shaping imposes nothing: an unbudgeted
    /// request on an uncapped tenant shares the lane window ledger. A
    /// tenant-capped grant holds its cap against the tenant until
    /// [`settle`](TrafficShaper::settle) releases it, so every grant
    /// must be settled.
    #[must_use]
    pub fn request_budget(
        &self,
        lane: TrafficLane,
        tenant: TenantId,
        request_budget: Option<u64>,
    ) -> ShapedBudget {
        let lane_ledger = self.synced_ledger(lane);
        let lane_left = lane_ledger.remaining();
        let bound = request_budget
            .unwrap_or(u64::MAX)
            .min(lane_left.unwrap_or(u64::MAX));
        let held = self.registry.hold_cap(tenant, lane, lane_left, bound);
        match (request_budget, held) {
            (None, None) => ShapedBudget::Shared(lane_ledger),
            (_, held) => ShapedBudget::Local {
                cap_nanos: held.unwrap_or(bound),
                lane: lane_ledger,
                held_nanos: held.unwrap_or(0),
            },
        }
    }

    /// Serve one admitted request — a single table or a whole batch —
    /// from `tenant` on `lane`: grant its budget
    /// ([`request_budget`](TrafficShaper::request_budget)), run `run`
    /// on the granted ledger (the lane's shared window ledger, or a
    /// private [`BudgetLedger::bounded`] one for explicit budgets and
    /// tenant caps), then [`settle`](TrafficShaper::settle) the
    /// outcomes' spend, degradations and delta reuse back into the
    /// lane, the tenant and the serving counters. `run` receives
    /// `options` attributed to `tenant`, so every outcome's
    /// [`DegradationReport`](crate::request::DegradationReport) echoes
    /// it. This is the one serving path of the HTTP server and the
    /// load lab.
    pub fn serve(
        &self,
        lane: TrafficLane,
        tenant: TenantId,
        options: &RequestOptions,
        run: impl FnOnce(&RequestOptions, &BudgetLedger) -> Vec<AnnotationOutcome>,
    ) -> Vec<AnnotationOutcome> {
        let options = RequestOptions {
            tenant: Some(tenant),
            ..*options
        };
        let grant = self.request_budget(lane, tenant, options.resolved().0);
        let outcomes = match &grant {
            ShapedBudget::Shared(ledger) => run(&options, ledger),
            ShapedBudget::Local { cap_nanos, .. } => {
                run(&options, &BudgetLedger::bounded(*cap_nanos))
            }
        };
        let (mut spent, mut degraded, mut delta_reused) = (0u64, 0u64, 0u64);
        for o in &outcomes {
            spent = spent.saturating_add(o.degradation.spent_nanos);
            degraded += u64::from(o.degraded());
            delta_reused = delta_reused.saturating_add(o.degradation.delta_reused as u64);
        }
        self.settle(lane, tenant, &grant, spent, degraded, delta_reused);
        outcomes
    }

    /// Account one served request: charge `spent_nanos` back to the
    /// lane window (only for [`ShapedBudget::Local`] runs — shared
    /// runs charged the window ledger directly), charge the tenant's
    /// deficit and spend, release the cap the grant held, and bump the
    /// lane/tenant serving counters.
    pub fn settle(
        &self,
        lane: TrafficLane,
        tenant: TenantId,
        budget: &ShapedBudget,
        spent_nanos: u64,
        degraded_outcomes: u64,
        delta_reused: u64,
    ) {
        self.registry.charge(tenant, lane, spent_nanos);
        if let ShapedBudget::Local {
            lane: ledger,
            held_nanos,
            ..
        } = budget
        {
            ledger.charge(spent_nanos);
            self.registry.release(tenant, lane, *held_nanos);
        }
        self.registry.record_served(tenant, lane, degraded_outcomes);
        self.counters(lane)
            .record_served(degraded_outcomes, delta_reused);
    }
}

/// [`TenantRegistry::effective_cap`] on a locked registry, for an
/// enabled-fairness registry and a budgeted lane remainder.
fn effective_cap_locked(
    inner: &RegistryInner,
    id: TenantId,
    li: usize,
    remaining: u64,
) -> Option<u64> {
    let budget = inner.lanes[li].window_budget?;
    let account = inner.accounts.get(id.index())?;
    let own = &account.lanes[li];
    // What running requests hold comes off the lane remainder; what
    // the other tenants are still owed is their whole deficits and, of
    // this window, the unspent part of each one's quantum — both net
    // of what their running requests already hold.
    let (mut held, mut owed, mut owed_this_window) = (0u64, 0u64, 0u64);
    for (i, other) in inner.accounts.iter().enumerate() {
        let other_lane = &other.lanes[li];
        held = held.saturating_add(other_lane.held_nanos);
        if i != id.index() {
            let quantum = quantum_nanos(budget, other.weight, inner.total_weight);
            let unspent = quantum.saturating_sub(other_lane.window_spent_nanos);
            let unheld = |nanos: u64| nanos.saturating_sub(other_lane.held_nanos);
            owed = owed.saturating_add(unheld(other_lane.deficit_nanos));
            owed_this_window =
                owed_this_window.saturating_add(unheld(other_lane.deficit_nanos.min(unspent)));
        }
    }
    let free = remaining.saturating_sub(held);
    if own.deficit_nanos > 0 {
        let deficit = own.deficit_nanos.saturating_sub(own.held_nanos);
        let cap = deficit.min(free.saturating_sub(owed_this_window));
        if cap >= remaining {
            // The lane window is the tighter bound: behave exactly
            // like an unshapen request.
            return None;
        }
        return Some(cap);
    }
    // Over quota: leave the in-quota tenants' outstanding deficits
    // alone and take only a weight share of what is left over.
    let unreserved = free.saturating_sub(owed);
    let share = if inner.total_weight > 0.0 {
        account.weight / inner.total_weight
    } else {
        0.0
    };
    Some(scale_nanos(unreserved, share))
}

/// Dense index of a lane into per-lane arrays ([`TrafficLane::ALL`]
/// order).
#[must_use]
pub fn lane_index(lane: TrafficLane) -> usize {
    match lane {
        TrafficLane::Interactive => 0,
        TrafficLane::Crawl => 1,
    }
}

fn sanitize_weight(weight: f64) -> f64 {
    if weight.is_finite() {
        weight.max(1e-6)
    } else {
        DEFAULT_WEIGHT
    }
}

fn quantum_nanos(window_budget: u64, weight: f64, total_weight: f64) -> u64 {
    if total_weight <= 0.0 {
        return window_budget;
    }
    scale_nanos(window_budget, weight / total_weight)
}

/// `nanos × factor`, saturating, with non-finite factors clamped away.
fn scale_nanos(nanos: u64, factor: f64) -> u64 {
    let scaled = nanos as f64 * factor.max(0.0);
    if !scaled.is_finite() || scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

fn scale_capacity(capacity: usize, fraction: f64) -> usize {
    let scaled = capacity as f64 * fraction.clamp(0.0, 1.0);
    scaled.floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let reg = TenantRegistry::new();
        let a = reg.intern("acme");
        let b = reg.intern("beta");
        assert_eq!(reg.intern("acme"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.name(a).as_deref(), Some("acme"));
        assert_eq!(reg.lookup("beta"), Some(b));
        assert_eq!(reg.lookup("gamma"), None);
        assert_eq!(reg.weight(a), Some(DEFAULT_WEIGHT));
    }

    #[test]
    fn register_sets_and_updates_weights() {
        let reg = TenantRegistry::new();
        let a = reg.register("acme", 3.0);
        assert_eq!(reg.weight(a), Some(3.0));
        let same = reg.register("acme", 5.0);
        assert_eq!(same, a);
        assert_eq!(reg.weight(a), Some(5.0));
        // Degenerate weights are clamped, never zero or negative.
        let b = reg.register("beta", -1.0);
        assert!(reg.weight(b).unwrap() > 0.0);
        let c = reg.register("gamma", f64::NAN);
        assert_eq!(reg.weight(c), Some(DEFAULT_WEIGHT));
    }

    #[test]
    fn deficits_replenish_per_window_and_cap_at_burst() {
        let reg = TenantRegistry::new();
        let a = reg.register("a", 1.0);
        let b = reg.register("b", 1.0);
        // First observation grants the full burst: budget 1000, two
        // equal tenants → quantum 500, burst cap 1000.
        reg.observe_window(TrafficLane::Interactive, 0, Some(1_000));
        assert!(!reg.over_quota(a, TrafficLane::Interactive));
        reg.charge(a, TrafficLane::Interactive, 1_000);
        assert!(reg.over_quota(a, TrafficLane::Interactive));
        assert!(!reg.over_quota(b, TrafficLane::Interactive));
        // Same window: no replenish.
        reg.observe_window(TrafficLane::Interactive, 0, Some(1_000));
        assert!(reg.over_quota(a, TrafficLane::Interactive));
        // Rolled window: one quantum back.
        reg.observe_window(TrafficLane::Interactive, 1, Some(1_000));
        assert!(!reg.over_quota(a, TrafficLane::Interactive));
        // b never spent: capped at the burst, not unbounded.
        let snap = reg.snapshot();
        let b_lane = &snap[b.index()].lanes[lane_index(TrafficLane::Interactive)];
        assert_eq!(b_lane.deficit_nanos, 1_000, "burst cap = 2 quanta");
    }

    #[test]
    fn over_quota_needs_fairness_and_a_budgeted_lane() {
        let reg = TenantRegistry::accounting_only();
        let a = reg.intern("a");
        reg.observe_window(TrafficLane::Crawl, 0, Some(100));
        reg.charge(a, TrafficLane::Crawl, 10_000);
        assert!(!reg.over_quota(a, TrafficLane::Crawl), "accounting only");
        assert_eq!(reg.effective_cap(a, TrafficLane::Crawl, Some(100)), None);

        let fair = TenantRegistry::new();
        let b = fair.intern("b");
        // Unbudgeted lane: never over quota, never capped.
        fair.observe_window(TrafficLane::Crawl, 0, None);
        fair.charge(b, TrafficLane::Crawl, 10_000);
        assert!(!fair.over_quota(b, TrafficLane::Crawl));
        assert_eq!(fair.effective_cap(b, TrafficLane::Crawl, None), None);
    }

    #[test]
    fn effective_cap_reserves_in_quota_deficits() {
        let reg = TenantRegistry::new();
        let heavy = reg.register("heavy", 1.0);
        let light = reg.register("light", 1.0);
        reg.observe_window(TrafficLane::Interactive, 0, Some(1_000));
        // In quota with deficit (1000 burst) ≥ remaining (1000), but
        // light is still owed its 500 quantum of this window: capped at
        // the other 500.
        assert_eq!(
            reg.effective_cap(heavy, TrafficLane::Interactive, Some(1_000)),
            Some(500)
        );
        // Drain heavy partially: deficit 300 = remaining 800 − light's
        // 500 → capped at the deficit.
        reg.charge(heavy, TrafficLane::Interactive, 700);
        assert_eq!(
            reg.effective_cap(heavy, TrafficLane::Interactive, Some(800)),
            Some(300)
        );
        // Fully drained: over quota. Light still holds a 1000 deficit
        // (reserved); remaining 800 − min(reserved, …) leaves nothing.
        reg.charge(heavy, TrafficLane::Interactive, 300);
        assert!(reg.over_quota(heavy, TrafficLane::Interactive));
        assert_eq!(
            reg.effective_cap(heavy, TrafficLane::Interactive, Some(800)),
            Some(0)
        );
        // With light mostly drained too, the unreserved remainder is
        // shared by weight: light deficit 100 reserved, remaining 800
        // → unreserved 700, heavy's half share = 350.
        reg.charge(light, TrafficLane::Interactive, 900);
        assert_eq!(
            reg.effective_cap(heavy, TrafficLane::Interactive, Some(800)),
            Some(350)
        );
    }

    #[test]
    fn in_quota_tenants_cannot_drain_what_others_are_owed() {
        let reg = TenantRegistry::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|name| reg.register(name, 1.0));
        let lane = TrafficLane::Interactive;
        // Budget 1000, four equal tenants: quantum 250, burst deficit
        // 500 each — 2000 owed against a 1000 window.
        reg.observe_window(lane, 0, Some(1_000));
        assert_eq!(reg.effective_cap(a, lane, Some(1_000)), Some(250));
        reg.charge(a, lane, 250);
        assert_eq!(reg.effective_cap(b, lane, Some(750)), Some(250));
        reg.charge(b, lane, 250);
        // a and b took their quanta; both still hold 250 of burst
        // deficit, but c's and d's quanta are reserved.
        assert!(!reg.over_quota(a, lane));
        assert_eq!(reg.effective_cap(a, lane, Some(500)), Some(0));
        assert_eq!(reg.effective_cap(b, lane, Some(500)), Some(0));
        assert_eq!(reg.effective_cap(c, lane, Some(500)), Some(250));
        reg.charge(c, lane, 100);
        assert_eq!(reg.effective_cap(d, lane, Some(400)), Some(250));
        // Whatever c leaves unspent of its quantum stays c's.
        assert_eq!(reg.effective_cap(c, lane, Some(400)), Some(150));
        // A rolled window owes everyone a fresh quantum again.
        reg.observe_window(lane, 1, Some(1_000));
        assert_eq!(reg.effective_cap(a, lane, Some(1_000)), Some(250));
    }

    #[test]
    fn running_requests_hold_their_caps_until_settled() {
        if crate::request::forced_step_budget_nanos().is_some() {
            return;
        }
        let registry = Arc::new(TenantRegistry::new());
        let shaper = TrafficShaper::new(
            Arc::clone(&registry),
            Some(1_000),
            None,
            Duration::from_secs(600),
        );
        let a = registry.register("a", 1.0);
        let _b = registry.register("b", 1.0);
        let lane = TrafficLane::Interactive;
        let cap = |grant: &ShapedBudget| match grant {
            ShapedBudget::Local { cap_nanos, .. } => *cap_nanos,
            ShapedBudget::Shared(_) => panic!("a tenant cap binds"),
        };
        // b is owed its 500 quantum: a's first request may take the
        // other 500, and a concurrent second one nothing more.
        let first = shaper.request_budget(lane, a, None);
        let second = shaper.request_budget(lane, a, None);
        assert_eq!((cap(&first), cap(&second)), (500, 0));
        // Settling releases the hold and charges the real spend.
        shaper.settle(lane, a, &first, 200, 0, 0);
        shaper.settle(lane, a, &second, 0, 1, 0);
        let third = shaper.request_budget(lane, a, None);
        assert_eq!(cap(&third), 300);
        shaper.settle(lane, a, &third, 0, 0, 0);
        assert_eq!(registry.effective_cap(a, lane, Some(800)), Some(300));
    }

    #[test]
    fn admission_cutoffs_order_sheds() {
        assert!(
            admission_cutoff(TrafficLane::Crawl, true)
                < admission_cutoff(TrafficLane::Crawl, false)
        );
        assert!(
            admission_cutoff(TrafficLane::Crawl, false)
                < admission_cutoff(TrafficLane::Interactive, false)
        );
        assert_eq!(
            admission_cutoff(TrafficLane::Crawl, false),
            admission_cutoff(TrafficLane::Interactive, true)
        );
        assert_eq!(admission_cutoff(TrafficLane::Interactive, false), 1.0);
    }

    #[test]
    fn shaper_admission_consults_quota_and_counts_sheds() {
        let registry = Arc::new(TenantRegistry::new());
        let shaper = TrafficShaper::new(
            Arc::clone(&registry),
            Some(1_000),
            Some(1_000),
            Duration::from_secs(600),
        );
        let heavy = registry.register("heavy", 1.0);
        let light = registry.register("light", 1.0);
        let queue: BoundedQueue<u32> = BoundedQueue::new(8);
        // Fill to 2 (≥ 8×0.25): over-quota crawl sheds, in-quota crawl
        // still admitted.
        queue.push(0).unwrap();
        queue.push(1).unwrap();
        // Drain heavy's whole deficit so it goes over quota.
        let _ = shaper.synced_ledger(TrafficLane::Crawl);
        registry.charge(heavy, TrafficLane::Crawl, u64::MAX / 2);
        assert_eq!(
            shaper.admit(&queue, TrafficLane::Crawl, heavy, 2),
            Err(QueueRejection::Full)
        );
        assert_eq!(shaper.admit(&queue, TrafficLane::Crawl, light, 2), Ok(()));
        // At half capacity every crawl request sheds; interactive
        // in-quota still goes through.
        queue.push(3).unwrap();
        assert_eq!(
            shaper.admit(&queue, TrafficLane::Crawl, light, 4),
            Err(QueueRejection::Full)
        );
        // Quota is per lane: heavy drained only its crawl deficit, so
        // interactive still admits it...
        assert!(!shaper.over_quota(TrafficLane::Interactive, heavy));
        // ...until the interactive deficit is drained too.
        registry.charge(heavy, TrafficLane::Interactive, u64::MAX / 2);
        assert_eq!(
            shaper.admit(&queue, TrafficLane::Interactive, heavy, 4),
            Err(QueueRejection::Full),
            "over-quota interactive sheds at the crawl cutoff"
        );
        assert_eq!(
            shaper.admit(&queue, TrafficLane::Interactive, light, 4),
            Ok(())
        );
        assert_eq!(shaper.counters(TrafficLane::Crawl).shed(), 2);
        assert_eq!(shaper.counters(TrafficLane::Interactive).shed(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap[heavy.index()].lanes[1].shed, 1);
        assert_eq!(snap[heavy.index()].lanes[0].shed, 1);
        assert_eq!(snap[light.index()].lanes[1].shed, 1);
    }

    /// What [`TrafficShaper::serve`] grants a request with `budget`:
    /// the granted ledger's budget, and whether it is the lane's shared
    /// window ledger (a 1 ns charge inside `run` lands on the lane).
    fn granted(
        shaper: &TrafficShaper,
        lane: TrafficLane,
        t: TenantId,
        budget: Option<u64>,
    ) -> (Option<u64>, bool) {
        let before = shaper.lane_ledger(lane).remaining_nanos();
        let options = RequestOptions {
            budget_nanos: budget,
            ..RequestOptions::default()
        };
        let mut granted = None;
        let _ = shaper.serve(lane, t, &options, |_, ledger| {
            granted = ledger.budget();
            ledger.charge(1);
            Vec::new()
        });
        let shared = shaper.lane_ledger(lane).remaining_nanos() != before;
        (granted, shared)
    }

    #[test]
    fn request_budget_composes_lane_tenant_and_request_bounds() {
        if crate::request::forced_step_budget_nanos().is_some() {
            return;
        }
        let registry = Arc::new(TenantRegistry::new());
        let shaper = TrafficShaper::new(
            Arc::clone(&registry),
            Some(10_000),
            None,
            Duration::from_secs(600),
        );
        let t = registry.intern("t");
        let lane = TrafficLane::Interactive;
        // Unbudgeted request, in-quota tenant with burst ≥ window:
        // shares the lane ledger (the unshapen path).
        assert_eq!(granted(&shaper, lane, t, None), (Some(10_000), true));
        // Explicit request budget: local, capped at min(budget, lane).
        assert_eq!(granted(&shaper, lane, t, Some(3_000)), (Some(3_000), false));
        // Unbudgeted lane: explicit budget passes through verbatim.
        assert_eq!(
            granted(&shaper, TrafficLane::Crawl, t, Some(42)),
            (Some(42), false)
        );
        // Drained sole tenant: work conserving — with nobody else's
        // deficit to reserve, the over-quota share is the full lane
        // remainder, so the request budget still binds.
        registry.charge(t, lane, u64::MAX / 2);
        assert_eq!(granted(&shaper, lane, t, Some(3_000)), (Some(3_000), false));
        // A second in-quota tenant changes that: its burst deficit
        // (2 quanta = the whole window) is reserved, so the drained
        // tenant's cap collapses to 0 — fully degraded, not starved of
        // admission.
        let _ = registry.register("other", 1.0);
        assert_eq!(granted(&shaper, lane, t, Some(3_000)), (Some(0), false));
    }

    #[test]
    fn serve_settles_every_outcome_of_a_batch() {
        let registry = Arc::new(TenantRegistry::new());
        let shaper = TrafficShaper::new(
            Arc::clone(&registry),
            Some(10_000),
            None,
            Duration::from_secs(600),
        );
        let t = registry.intern("t");
        let outcome = |spent_nanos: u64, delta_reused: usize| AnnotationOutcome {
            annotation: crate::prediction::TableAnnotation {
                columns: Vec::new(),
                timings: Vec::new(),
            },
            degradation: crate::request::DegradationReport {
                policy: crate::request::DegradationPolicy::Strict,
                budget_nanos: None,
                spent_nanos,
                remaining_nanos: None,
                skipped: Vec::new(),
                delta_reused,
                tenant: None,
            },
        };
        let options = RequestOptions::default().with_budget_nanos(4_000);
        let outcomes = shaper.serve(TrafficLane::Interactive, t, &options, |opts, _| {
            assert_eq!(opts.tenant, Some(t), "run sees the attributed tenant");
            vec![outcome(1_000, 1), outcome(1_500, 2)]
        });
        assert_eq!(outcomes.len(), 2);
        // The local grant's spend is charged back to the lane window.
        assert_eq!(
            shaper
                .lane_ledger(TrafficLane::Interactive)
                .remaining_nanos(),
            Some(7_500)
        );
        assert_eq!(registry.snapshot()[t.index()].lanes[0].spent_nanos, 2_500);
        let counters = shaper.counters(TrafficLane::Interactive);
        assert_eq!(counters.served(), 1);
        assert_eq!(counters.degraded(), 0);
        assert_eq!(counters.delta_reused(), 3);
    }

    #[test]
    fn settle_charges_lane_tenant_and_counters() {
        let registry = Arc::new(TenantRegistry::new());
        let shaper = TrafficShaper::new(
            Arc::clone(&registry),
            Some(10_000),
            None,
            Duration::from_secs(600),
        );
        let t = registry.intern("t");
        let grant = ShapedBudget::Local {
            cap_nanos: 4_000,
            lane: shaper.lane_ledger(TrafficLane::Interactive).ledger(),
            held_nanos: 0,
        };
        shaper.settle(TrafficLane::Interactive, t, &grant, 2_500, 1, 3);
        assert_eq!(
            shaper
                .lane_ledger(TrafficLane::Interactive)
                .remaining_nanos(),
            Some(7_500)
        );
        let snap = registry.snapshot();
        let lane0 = &snap[t.index()].lanes[0];
        assert_eq!(lane0.spent_nanos, 2_500);
        assert_eq!(lane0.served, 1);
        assert_eq!(lane0.degraded, 1);
        let counters = shaper.counters(TrafficLane::Interactive);
        assert_eq!(counters.served(), 1);
        assert_eq!(counters.degraded(), 1);
        assert_eq!(counters.delta_reused(), 3);
    }
}
