//! The continuous-batching serve engine.
//!
//! [`Engine`] is the deterministic, single-threaded scheduling core of
//! the service (the server wraps it in one thread; tests drive it
//! directly with [`Engine::step`]). It maintains:
//!
//! * an **admission queue** ordered by ([`Priority`] descending,
//!   earliest deadline, arrival order),
//! * one **fused pack** of in-flight instances sharing `dims`: a
//!   [`FusedPack`], the block-diagonal pack [`paradmm_core::BatchSolver`]
//!   runs too, driven through a single backend, and
//! * a **fleet lane**: [`FleetSolver`] rounds for requests that cannot
//!   join the pack (mismatched `dims`) or should not wait for it
//!   ([`Priority::Critical`]).
//!
//! # Continuous batching and the per-instance block rule
//!
//! [`FusedPack`] owns the block rule; the engine only decides who
//! joins. Unlike a [`paradmm_core::BatchSolver`] batch, whose members
//! start together, pack members here join mid-flight, each carrying
//! its own [`RunState`]. Each [`Engine::step`]:
//!
//! 1. splices queued compatible requests into the pack
//!    ([`FusedPack::retire`] with joiners: a *join*, at a repack
//!    boundary only),
//! 2. runs one fused block ([`FusedPack::run_block`]) to the nearest
//!    member's next check point or budget, after which each member
//!    checks its residuals over its own edge range,
//! 3. when a member stopped, retires the stopped members and repacks
//!    the survivors ([`FusedPack::retire`] without joiners).
//!
//! Because the fused graph is block-diagonal, iterate sequences are
//! unaffected by how iterations are partitioned into blocks, and a
//! [`RunState`] checks at the same iterations however its blocks are
//! cut; so each member's check schedule (and therefore its stop
//! iteration) lands exactly on its solo [`paradmm_core::Solver::run`]
//! schedule. Together these give the serving bit-identity contract:
//! every served request returns the bit-identical store and iteration
//! count of a solo serial solve with the same warm start — regardless
//! of who else was in the pack, when they joined, or which backend
//! executed the fused blocks.

use std::time::Instant;

use paradmm_core::{
    AdmmProblem, BackendSpec, FleetSolver, FusedPack, InstanceReport, Priority, RunState, Seat,
    SolveOutcome, SolveRequest, SolverOptions, StopReason, StoppingCriteria, SweepExecutor,
    UpdateTimings,
};
use paradmm_graph::VarStore;

use crate::cache::WarmStartCache;
use crate::protocol::request_fingerprint;

/// Which execution path served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// One-at-a-time execution ([`ServeMode::Solo`], the unbatched
    /// baseline).
    Solo,
    /// The continuously-batched fused pack.
    Batch,
    /// A dedicated [`FleetSolver`] round (mixed `dims` or
    /// [`Priority::Critical`]).
    Fleet,
}

impl Lane {
    /// Stable wire encoding.
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Lane::Solo => 0,
            Lane::Batch => 1,
            Lane::Fleet => 2,
        }
    }

    /// Inverse of [`Lane::as_u8`].
    pub(crate) fn from_u8(v: u8) -> Option<Lane> {
        match v {
            0 => Some(Lane::Solo),
            1 => Some(Lane::Batch),
            2 => Some(Lane::Fleet),
            _ => None,
        }
    }
}

/// How the engine executes admitted requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Continuous batching (the point of this crate).
    #[default]
    Batched,
    /// One request at a time, in queue order — the per-request serving
    /// baseline the batched mode is benchmarked against.
    Solo,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Execution mode.
    pub mode: ServeMode,
    /// Backend running the fused pack (and solo-mode requests).
    /// Bit-identity holds for any synchronous backend.
    pub backend: BackendSpec,
    /// Worker threads for fleet-lane rounds.
    pub fleet_threads: usize,
    /// Maximum instances fused into the pack at once; further
    /// compatible requests wait in the queue for a retire.
    pub max_batch: usize,
    /// Warm-start cache entries (`0` disables the cache).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ServeMode::Batched,
            backend: BackendSpec::Serial,
            fleet_threads: 2,
            max_batch: 64,
            cache_capacity: 128,
        }
    }
}

/// A request under a server-assigned id.
pub struct EngineRequest {
    /// Engine-scoped id echoed back on the [`Completion`].
    pub id: u64,
    /// The work.
    pub request: SolveRequest,
    /// Whether the warm-start cache may seed this solve (ignored when
    /// the request carries an explicit warm start).
    pub use_cache: bool,
}

/// A finished request.
pub struct Completion {
    /// Id from the [`EngineRequest`].
    pub id: u64,
    /// The solve result; `elapsed` covers admission to completion.
    pub outcome: SolveOutcome,
    /// Which lane served it.
    pub lane: Lane,
    /// Whether the solve was seeded from the warm-start cache.
    pub warm_started: bool,
}

/// Counters describing what the engine has done so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed (all lanes).
    pub completed: u64,
    /// Completions served by the fused pack.
    pub batch_served: u64,
    /// Completions served by fleet rounds.
    pub fleet_served: u64,
    /// Completions served one-at-a-time ([`ServeMode::Solo`]).
    pub solo_served: u64,
    /// Requests spliced into an *already running* pack.
    pub joins: u64,
    /// Pack rebuilds (joins and retires both repack).
    pub repacks: u64,
    /// Warm-start cache hits.
    pub cache_hits: u64,
    /// Largest pack size observed.
    pub max_pack: usize,
}

/// What a request's completion echoes back, whichever lane serves it.
struct Ticket {
    id: u64,
    warm_started: bool,
    /// Warm-start cache key covering topology, ρ/α *and* the prox
    /// operators; `None` (closure-backed operator, no stable encoding)
    /// bypasses the cache entirely.
    fingerprint: Option<u64>,
    admitted: Instant,
}

/// An admitted request waiting for a lane: its seat (state = warm
/// start or zeros) plus the queue's ordering keys.
struct Pending {
    seat: Seat<Ticket>,
    seq: u64,
    priority: Priority,
    /// Absolute deadline (admission time + requested budget) — EDF
    /// ordering must compare these, not raw budgets, or a request that
    /// has already burned most of its budget waiting sorts behind a
    /// fresh one with a nominally tighter budget.
    deadline_at: Option<Instant>,
}

/// The deterministic, steppable continuous-batching core. See the
/// module docs for the scheduling rules.
pub struct Engine {
    config: EngineConfig,
    cache: WarmStartCache,
    queue: Vec<Pending>,
    pack: Option<FusedPack<Ticket>>,
    backend: Box<dyn SweepExecutor>,
    timings: UpdateTimings,
    seq: u64,
    stats: EngineStats,
}

impl Engine {
    /// An idle engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            cache: WarmStartCache::new(config.cache_capacity),
            backend: config.backend.to_backend(),
            config,
            queue: Vec::new(),
            pack: None,
            timings: UpdateTimings::new(),
            seq: 0,
            stats: EngineStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Whether no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.pack.is_none()
    }

    /// Instances currently fused in the pack.
    pub fn pack_len(&self) -> usize {
        self.pack.as_ref().map_or(0, |p| p.layout().num_instances())
    }

    /// Admits a request: resolves its warm start (explicit beats
    /// cache), then places it in the admission queue.
    pub fn submit(&mut self, req: EngineRequest) {
        let EngineRequest {
            id,
            request,
            use_cache,
        } = req;
        let parts = request.into_parts();
        let (graph, proxes, params) = parts.problem.into_parts();
        // Key the cache on the full problem — structure, ρ/α and prox
        // operators — never on shape alone: two MPC ticks share a
        // controller but not targets, and one client's solution must
        // not seed another client's different problem.
        let fingerprint = request_fingerprint(&graph, &params, &proxes);
        let mut warm = parts.warm_start;
        let mut warm_started = false;
        if warm.is_none() && use_cache {
            if let Some(cached) = fingerprint.and_then(|fp| self.cache.get(fp)) {
                // Fingerprints hash the problem, they don't prove it;
                // verify the shape before seeding.
                if cached.dims() == graph.dims()
                    && cached.num_edges() == graph.num_edges()
                    && cached.num_vars() == graph.num_vars()
                {
                    warm = Some(cached);
                    warm_started = true;
                    self.stats.cache_hits += 1;
                }
            }
        }
        self.seq += 1;
        self.stats.submitted += 1;
        let admitted = Instant::now();
        let run = RunState::new(parts.stopping, parts.stopping.max_iters, &graph);
        self.queue.push(Pending {
            seat: Seat {
                tag: Ticket {
                    id,
                    warm_started,
                    fingerprint,
                    admitted,
                },
                state: warm.unwrap_or_else(|| VarStore::zeros(&graph)),
                graph,
                params,
                run,
                proxes,
            },
            seq: self.seq,
            priority: parts.priority,
            deadline_at: parts.deadline.and_then(|d| admitted.checked_add(d)),
        });
    }

    /// Runs one scheduling cycle and returns the requests that finished
    /// during it. In [`ServeMode::Batched`]: admit joiners → run any
    /// fleet round → run one fused block → check/retire/repack. In
    /// [`ServeMode::Solo`]: serve the whole queue one request at a
    /// time. Call repeatedly until [`Engine::is_idle`].
    pub fn step(&mut self) -> Vec<Completion> {
        let completions = match self.config.mode {
            ServeMode::Solo => self.step_solo(),
            ServeMode::Batched => self.step_batched(),
        };
        self.stats.completed += completions.len() as u64;
        completions
    }

    /// Convenience driver: steps until idle, collecting completions.
    pub fn run_until_idle(&mut self) -> Vec<Completion> {
        let mut all = Vec::new();
        while !self.is_idle() {
            all.extend(self.step());
        }
        all
    }

    /// Admission-queue ordering: priority descending, then earliest
    /// *absolute* deadline — admission time plus budget, so a request
    /// that has already waited keeps its urgency (requests without a
    /// deadline sort last) — then arrival.
    fn sort_queue(&mut self) {
        use std::cmp::Ordering;
        self.queue.sort_by(|a, b| {
            b.priority
                .cmp(&a.priority)
                .then_with(|| match (a.deadline_at, b.deadline_at) {
                    (Some(da), Some(db)) => da.cmp(&db),
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (None, None) => Ordering::Equal,
                })
                .then_with(|| a.seq.cmp(&b.seq))
        });
    }

    fn step_solo(&mut self) -> Vec<Completion> {
        self.sort_queue();
        let pending = std::mem::take(&mut self.queue);
        let mut completions = Vec::with_capacity(pending.len());
        for Pending { seat, .. } in pending {
            if seat.run.is_stopped() {
                completions.push(self.complete(seat, Lane::Solo));
                continue;
            }
            let problem = AdmmProblem::with_params(seat.graph, seat.proxes, seat.params);
            let options = SolverOptions {
                backend: self.config.backend,
                stopping: *seat.run.criteria(),
                ..SolverOptions::default()
            };
            let mut solver = paradmm_core::Solver::from_problem(problem, options);
            *solver.store_mut() = seat.state;
            let report = solver.run_default();
            let report = InstanceReport {
                iterations: report.iterations,
                stop_reason: report.stop_reason,
                final_residuals: report.final_residuals,
            };
            self.stats.solo_served += 1;
            completions.push(self.completion(seat.tag, solver.into_store(), report, Lane::Solo));
        }
        completions
    }

    fn step_batched(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.sort_queue();

        // Route the queue: batch joiners share the pack's dims (or, with
        // no pack, the dims of the highest-priority queued request);
        // Critical requests and dims misfits go to a fleet round now.
        let pack_dims = self
            .pack
            .as_ref()
            .map(|p| p.layout().dims())
            .or_else(|| self.queue.first().map(|p| p.seat.graph.dims()));
        let mut joiners: Vec<Seat<Ticket>> = Vec::new();
        let mut fleet: Vec<Seat<Ticket>> = Vec::new();
        let mut still_queued: Vec<Pending> = Vec::new();
        let room = self.config.max_batch.saturating_sub(self.pack_len());
        for p in std::mem::take(&mut self.queue) {
            if p.seat.run.is_stopped() {
                completions.push(self.complete(p.seat, Lane::Batch));
            } else if p.priority == Priority::Critical || Some(p.seat.graph.dims()) != pack_dims {
                fleet.push(p.seat);
            } else if joiners.len() < room {
                joiners.push(p.seat);
            } else {
                still_queued.push(p);
            }
        }
        self.queue = still_queued;

        if !fleet.is_empty() {
            completions.extend(self.run_fleet_round(fleet));
        }

        if !joiners.is_empty() {
            match self.pack.take() {
                Some(pack) => {
                    self.stats.joins += joiners.len() as u64;
                    self.repack(pack, joiners, &mut completions);
                }
                None => self.install(Some(FusedPack::new(joiners))),
            }
        }

        if let Some(pack) = self.pack.as_mut() {
            if pack.run_block(self.backend.as_mut(), &mut self.timings) {
                let pack = self.pack.take().expect("pack was just borrowed");
                self.repack(pack, Vec::new(), &mut completions);
            }
        }

        completions
    }

    /// Completes `pack`'s stopped members and repacks the rest followed
    /// by `joiners` (a repack boundary).
    fn repack(
        &mut self,
        pack: FusedPack<Ticket>,
        joiners: Vec<Seat<Ticket>>,
        completions: &mut Vec<Completion>,
    ) {
        let (stopped, pack) = pack.retire(joiners);
        if pack.is_some() {
            self.stats.repacks += 1;
        }
        self.install(pack);
        for seat in stopped {
            self.stats.batch_served += 1;
            completions.push(self.complete(seat, Lane::Batch));
        }
    }

    /// Makes `pack` the running pack.
    fn install(&mut self, pack: Option<FusedPack<Ticket>>) {
        let len = pack.as_ref().map_or(0, |p| p.layout().num_instances());
        self.stats.max_pack = self.stats.max_pack.max(len);
        self.pack = pack;
    }

    /// `seat`'s completion from its current state and report. A seat
    /// whose budget was zero completes with its initial state, as the
    /// solo loop, which never enters its body, would.
    fn complete(&mut self, seat: Seat<Ticket>, lane: Lane) -> Completion {
        let report = seat.run.report();
        self.completion(seat.tag, seat.state, report, lane)
    }

    /// `ticket`'s completion from its final state and report; a
    /// converged state also seeds the warm-start cache.
    fn completion(
        &mut self,
        ticket: Ticket,
        store: VarStore,
        report: InstanceReport,
        lane: Lane,
    ) -> Completion {
        if report.stop_reason == StopReason::Converged {
            if let Some(fp) = ticket.fingerprint {
                self.cache.insert(fp, store.clone());
            }
        }
        Completion {
            id: ticket.id,
            outcome: SolveOutcome {
                store,
                iterations: report.iterations,
                stop_reason: report.stop_reason,
                final_residuals: report.final_residuals,
                residual_trace: Vec::new(),
                elapsed: ticket.admitted.elapsed(),
            },
            lane,
            warm_started: ticket.warm_started,
        }
    }

    /// Serves `batch` on dedicated [`FleetSolver`] rounds, one round
    /// per distinct stopping criteria (a fleet run has one stopping
    /// policy; fleets handle mixed graph shapes and `dims` natively).
    /// Criteria compare bit for bit, so a NaN tolerance still matches
    /// itself and the first seat always leads its own round.
    fn run_fleet_round(&mut self, mut batch: Vec<Seat<Ticket>>) -> Vec<Completion> {
        let mut completions = Vec::new();
        while !batch.is_empty() {
            let stopping = *batch[0].run.criteria();
            let (round, rest): (Vec<_>, Vec<_>) = batch
                .into_iter()
                .partition(|s| same_criteria(s.run.criteria(), &stopping));
            batch = rest;

            let options = SolverOptions {
                stopping,
                ..SolverOptions::default()
            };
            let mut instances = Vec::with_capacity(round.len());
            let mut tickets = Vec::with_capacity(round.len());
            for s in round {
                let problem = AdmmProblem::with_params(s.graph, s.proxes, s.params);
                instances.push((problem, s.state));
                tickets.push(s.tag);
            }
            let mut fleet =
                FleetSolver::with_states(instances, options, self.config.fleet_threads.max(1));
            let report = fleet.run_default();
            for ((i, ticket), r) in tickets.into_iter().enumerate().zip(report.instances) {
                self.stats.fleet_served += 1;
                completions.push(self.completion(ticket, fleet.store(i).clone(), r, Lane::Fleet));
            }
        }
        completions
    }
}

/// Whether two stopping criteria are the same policy, bit for bit
/// (`==` on the `f64` tolerances would make a NaN tolerance unequal to
/// itself).
fn same_criteria(a: &StoppingCriteria, b: &StoppingCriteria) -> bool {
    a.max_iters == b.max_iters
        && a.check_every == b.check_every
        && a.eps_abs.to_bits() == b.eps_abs.to_bits()
        && a.eps_rel.to_bits() == b.eps_rel.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_core::{Solver, StoppingCriteria};
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};
    use std::time::Duration;

    /// Consensus of `k` quadratics over one variable (dims
    /// configurable); the optimum is the mean of the targets.
    fn consensus(dims: usize, targets: &[f64]) -> AdmmProblem {
        let mut b = GraphBuilder::new(dims);
        let v = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for &t in targets {
            b.add_factor(&[v]);
            let target: Vec<f64> = (0..dims).map(|c| t + c as f64).collect();
            proxes.push(Box::new(QuadraticProx::isotropic(dims, 2.0, &target)));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    fn request(dims: usize, targets: &[f64], stopping: StoppingCriteria) -> SolveRequest {
        SolveRequest::new(consensus(dims, targets)).with_stopping(stopping)
    }

    fn solo(dims: usize, targets: &[f64], stopping: StoppingCriteria) -> SolveOutcome {
        request(dims, targets, stopping).solve()
    }

    fn tight() -> StoppingCriteria {
        StoppingCriteria {
            max_iters: 2000,
            eps_abs: 1e-10,
            eps_rel: 1e-9,
            check_every: 10,
        }
    }

    fn by_id(mut completions: Vec<Completion>) -> Vec<Completion> {
        completions.sort_by_key(|c| c.id);
        completions
    }

    #[test]
    fn batched_stream_matches_solo_bitwise() {
        let mut engine = Engine::new(EngineConfig::default());
        let workloads: Vec<&[f64]> = vec![
            &[1.0, 5.0, 9.0],
            &[2.0, 4.0],
            &[-3.0, 0.0, 3.0, 6.0],
            &[7.0],
        ];
        for (i, t) in workloads.iter().enumerate() {
            engine.submit(EngineRequest {
                id: i as u64,
                request: request(1, t, tight()),
                use_cache: false,
            });
        }
        let completions = by_id(engine.run_until_idle());
        assert_eq!(completions.len(), workloads.len());
        for (c, t) in completions.iter().zip(&workloads) {
            let reference = solo(1, t, tight());
            assert_eq!(c.lane, Lane::Batch);
            assert_eq!(c.outcome.iterations, reference.iterations, "id {}", c.id);
            assert_eq!(c.outcome.stop_reason, reference.stop_reason);
            assert_eq!(c.outcome.store.z, reference.store.z, "id {}", c.id);
            assert_eq!(c.outcome.store.x, reference.store.x, "id {}", c.id);
            assert_eq!(c.outcome.store.u, reference.store.u, "id {}", c.id);
            assert_eq!(c.outcome.store.n, reference.store.n, "id {}", c.id);
            let (a, b) = (
                c.outcome.final_residuals.unwrap(),
                reference.final_residuals.unwrap(),
            );
            assert_eq!(a.primal, b.primal, "id {}", c.id);
            assert_eq!(a.dual, b.dual, "id {}", c.id);
        }
        assert!(engine.stats().batch_served == workloads.len() as u64);
    }

    #[test]
    fn mid_flight_join_stays_bit_identical() {
        let mut engine = Engine::new(EngineConfig::default());
        // A slow request enters alone...
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0, 9.0, -7.0, 3.0], tight()),
            use_cache: false,
        });
        let mut completions = engine.step();
        assert!(completions.is_empty(), "slow request is still in flight");
        assert_eq!(engine.pack_len(), 1);
        // ...then a second request joins the running pack mid-flight.
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()),
            use_cache: false,
        });
        completions.extend(engine.run_until_idle());
        let completions = by_id(completions);
        assert_eq!(completions.len(), 2);
        assert!(engine.stats().joins >= 1, "second request joined in flight");

        let ref1 = solo(1, &[1.0, 5.0, 9.0, -7.0, 3.0], tight());
        let ref2 = solo(1, &[2.0, 4.0], tight());
        assert_eq!(completions[0].outcome.iterations, ref1.iterations);
        assert_eq!(completions[0].outcome.store.z, ref1.store.z);
        assert_eq!(completions[0].outcome.store.u, ref1.store.u);
        assert_eq!(completions[1].outcome.iterations, ref2.iterations);
        assert_eq!(completions[1].outcome.store.z, ref2.store.z);
        assert_eq!(completions[1].outcome.store.u, ref2.store.u);
    }

    #[test]
    fn mixed_check_schedules_coexist_in_one_pack() {
        // Different check_every / max_iters per member: the per-member
        // block rule must reproduce each one's solo check schedule.
        let s1 = StoppingCriteria {
            max_iters: 500,
            eps_abs: 1e-9,
            eps_rel: 1e-8,
            check_every: 7,
        };
        let s2 = StoppingCriteria {
            max_iters: 64,
            eps_abs: 0.0,
            eps_rel: 0.0,
            check_every: 25, // checks at 25, 50, 64; never converges
        };
        let s3 = StoppingCriteria::fixed_iterations(33);
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0, 9.0], s1),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], s2),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 3,
            request: request(1, &[8.0], s3),
            use_cache: false,
        });
        let completions = by_id(engine.run_until_idle());
        assert_eq!(completions.len(), 3);

        for (c, reference) in completions.iter().zip([
            solo(1, &[1.0, 5.0, 9.0], s1),
            solo(1, &[2.0, 4.0], s2),
            solo(1, &[8.0], s3),
        ]) {
            assert_eq!(c.outcome.iterations, reference.iterations, "id {}", c.id);
            assert_eq!(c.outcome.stop_reason, reference.stop_reason, "id {}", c.id);
            assert_eq!(c.outcome.store.z, reference.store.z, "id {}", c.id);
            assert_eq!(
                c.outcome.final_residuals.map(|r| (r.primal, r.dual)),
                reference.final_residuals.map(|r| (r.primal, r.dual)),
                "id {}",
                c.id
            );
        }
    }

    #[test]
    fn mixed_dims_requests_route_to_fleet_lane() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 2,
            request: request(3, &[2.0, 4.0], tight()),
            use_cache: false,
        });
        let completions = by_id(engine.run_until_idle());
        assert_eq!(completions[0].lane, Lane::Batch);
        assert_eq!(
            completions[1].lane,
            Lane::Fleet,
            "dims misfit takes the fleet lane"
        );
        let reference = solo(3, &[2.0, 4.0], tight());
        assert_eq!(completions[1].outcome.iterations, reference.iterations);
        assert_eq!(completions[1].outcome.store.z, reference.store.z);
        assert_eq!(completions[1].outcome.store.u, reference.store.u);
        assert_eq!(engine.stats().fleet_served, 1);
    }

    #[test]
    fn critical_priority_skips_batch_coalescing() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()).with_priority(Priority::Critical),
            use_cache: false,
        });
        // The critical request completes on the very first step, before
        // the batch lane finishes anything.
        let first = engine.step();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, 2);
        assert_eq!(first[0].lane, Lane::Fleet);
        let reference = solo(1, &[2.0, 4.0], tight());
        assert_eq!(first[0].outcome.iterations, reference.iterations);
        assert_eq!(first[0].outcome.store.z, reference.store.z);
        let rest = engine.run_until_idle();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn nan_tolerance_request_still_gets_a_fleet_round() {
        // A NaN tolerance never converges. Criteria compare bit for
        // bit, so the request still leads its own fleet round instead
        // of an empty one.
        let nan = StoppingCriteria {
            max_iters: 40,
            eps_abs: f64::NAN,
            eps_rel: 1e-6,
            check_every: 10,
        };
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], nan).with_priority(Priority::Critical),
            use_cache: false,
        });
        let done = engine.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].lane, Lane::Fleet);
        let reference = solo(1, &[1.0, 5.0], nan);
        assert_eq!(reference.stop_reason, StopReason::MaxIterations);
        assert_eq!(done[0].outcome.stop_reason, reference.stop_reason);
        assert_eq!(done[0].outcome.iterations, reference.iterations);
        assert_eq!(done[0].outcome.store.z, reference.store.z);
    }

    #[test]
    fn warm_start_cache_seeds_resubmission() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0, 9.0], tight()),
            use_cache: true,
        });
        let first = engine.run_until_idle();
        assert!(!first[0].warm_started);
        assert!(first[0].outcome.stop_reason == StopReason::Converged);

        // The identical problem again: seeded from the cache, and
        // bit-identical to a solo solve given the same warm start.
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[1.0, 5.0, 9.0], tight()),
            use_cache: true,
        });
        let second = engine.run_until_idle();
        assert!(second[0].warm_started, "cache hit seeds the solve");
        assert_eq!(second[0].outcome.stop_reason, StopReason::Converged);
        assert_eq!(engine.stats().cache_hits, 1);

        let reference = request(1, &[1.0, 5.0, 9.0], tight())
            .with_warm_start(first[0].outcome.store.clone())
            .solve();
        assert_eq!(second[0].outcome.iterations, reference.iterations);
        assert_eq!(second[0].outcome.store.z, reference.store.z);
        assert!(
            second[0].outcome.iterations <= first[0].outcome.iterations,
            "warm start cannot be slower than cold on an already-converged state"
        );

        // A *different* problem must not hit the cache.
        engine.submit(EngineRequest {
            id: 3,
            request: request(1, &[6.0, 6.5], tight()),
            use_cache: true,
        });
        let third = engine.run_until_idle();
        assert!(!third[0].warm_started);
    }

    #[test]
    fn same_shape_different_objective_misses_the_cache() {
        // The MPC trap: identical topology and ρ/α, different prox
        // targets. Shape-only fingerprinting would collide here and
        // leak one problem's solution into the other's trajectory.
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()),
            use_cache: true,
        });
        let first = engine.run_until_idle();
        assert_eq!(first[0].outcome.stop_reason, StopReason::Converged);

        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()),
            use_cache: true,
        });
        let second = engine.run_until_idle();
        assert!(
            !second[0].warm_started,
            "same shape, different targets: no cache hit"
        );
        assert_eq!(engine.stats().cache_hits, 0);
        // And the result is the cold solo reference, untouched by the
        // cached solution of the other problem.
        let reference = solo(1, &[2.0, 4.0], tight());
        assert_eq!(second[0].outcome.iterations, reference.iterations);
        assert_eq!(second[0].outcome.store.z, reference.store.z);

        // The exact same problem still hits.
        engine.submit(EngineRequest {
            id: 3,
            request: request(1, &[1.0, 5.0], tight()),
            use_cache: true,
        });
        let third = engine.run_until_idle();
        assert!(third[0].warm_started);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn closure_prox_requests_bypass_the_cache() {
        // NumericProx has no ProxSpec, hence no stable identity: the
        // request must solve fine but never seed or populate the cache.
        fn numeric_request() -> SolveRequest {
            let mut b = GraphBuilder::new(1);
            let v = b.add_var();
            b.add_factor(&[v]);
            let proxes: Vec<Box<dyn ProxOp>> =
                vec![Box::new(paradmm_prox::NumericProx::new(|s: &[f64]| {
                    (s[0] - 2.0) * (s[0] - 2.0)
                }))];
            SolveRequest::new(AdmmProblem::new(b.build(), proxes, 1.0, 1.0)).with_stopping(tight())
        }
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: numeric_request(),
            use_cache: true,
        });
        let first = engine.run_until_idle();
        assert_eq!(first.len(), 1);

        engine.submit(EngineRequest {
            id: 2,
            request: numeric_request(),
            use_cache: true,
        });
        let second = engine.run_until_idle();
        assert!(!second[0].warm_started);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn edf_orders_by_absolute_deadline_not_raw_budget() {
        let config = EngineConfig {
            mode: ServeMode::Solo,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        // Request 1 carries the nominally looser 900ms budget...
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()).with_deadline(Duration::from_millis(900)),
            use_cache: false,
        });
        // ...but has been waiting so long that only 50ms of it remain
        // (simulated by backdating its admission-time deadline).
        engine.queue[0].deadline_at = Some(Instant::now() + Duration::from_millis(50));
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()).with_deadline(Duration::from_millis(100)),
            use_cache: false,
        });
        let order: Vec<u64> = engine.run_until_idle().iter().map(|c| c.id).collect();
        assert_eq!(
            order,
            vec![1, 2],
            "the nearer absolute deadline wins, regardless of raw budget"
        );
    }

    #[test]
    fn explicit_warm_start_beats_cache() {
        let mut engine = Engine::new(EngineConfig::default());
        let seed = {
            let mut s = VarStore::zeros(consensus(1, &[1.0, 5.0]).graph());
            s.n[0] = 0.7;
            s.snapshot_z();
            s
        };
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()).with_warm_start(seed.clone()),
            use_cache: true,
        });
        let done = engine.run_until_idle();
        assert!(
            !done[0].warm_started,
            "explicit warm start is not a cache hit"
        );
        let reference = request(1, &[1.0, 5.0], tight())
            .with_warm_start(seed)
            .solve();
        assert_eq!(done[0].outcome.iterations, reference.iterations);
        assert_eq!(done[0].outcome.store.z, reference.store.z);
    }

    #[test]
    fn max_batch_defers_overflow_to_the_queue() {
        let config = EngineConfig {
            max_batch: 2,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        for i in 0..5 {
            engine.submit(EngineRequest {
                id: i,
                request: request(1, &[1.0 + i as f64, 5.0], tight()),
                use_cache: false,
            });
        }
        let mut served = 0;
        while !engine.is_idle() {
            assert!(engine.pack_len() <= 2, "pack never exceeds max_batch");
            served += engine.step().len();
        }
        assert_eq!(served, 5);
        // Everything still matches solo.
        assert_eq!(engine.stats().batch_served, 5);
    }

    #[test]
    fn solo_mode_serves_in_priority_then_deadline_order() {
        let config = EngineConfig {
            mode: ServeMode::Solo,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()).with_deadline(Duration::from_millis(900)),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()).with_deadline(Duration::from_millis(100)),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 3,
            request: request(1, &[3.0, 3.5], tight()).with_priority(Priority::High),
            use_cache: false,
        });
        let completions = engine.run_until_idle();
        let order: Vec<u64> = completions.iter().map(|c| c.id).collect();
        assert_eq!(
            order,
            vec![3, 2, 1],
            "priority first, then earliest deadline"
        );
        assert!(completions.iter().all(|c| c.lane == Lane::Solo));
        let reference = solo(1, &[2.0, 4.0], tight());
        let c2 = completions.iter().find(|c| c.id == 2).unwrap();
        assert_eq!(c2.outcome.store.z, reference.store.z);
        assert_eq!(c2.outcome.iterations, reference.iterations);
    }

    #[test]
    fn empty_iteration_budget_completes_immediately() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], StoppingCriteria::fixed_iterations(0)),
            use_cache: false,
        });
        let completions = engine.run_until_idle();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].outcome.iterations, 0);
        assert_eq!(
            completions[0].outcome.stop_reason,
            StopReason::MaxIterations
        );
    }

    #[test]
    fn fleet_backend_pack_stays_bit_identical() {
        let config = EngineConfig {
            backend: "fleet:2".parse().unwrap(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        for (i, t) in [[1.0, 5.0], [2.0, 4.0]].iter().enumerate() {
            engine.submit(EngineRequest {
                id: i as u64,
                request: request(1, t, tight()),
                use_cache: false,
            });
        }
        for c in by_id(engine.run_until_idle()) {
            let t = [[1.0, 5.0], [2.0, 4.0]][c.id as usize];
            let reference = solo(1, &t, tight());
            assert_eq!(c.outcome.iterations, reference.iterations);
            assert_eq!(c.outcome.store.z, reference.store.z);
        }
    }

    #[test]
    fn engine_uses_solver_reference_solo_path() {
        // Sanity-pin the reference: SolveRequest::solve and a raw
        // Solver::run agree, so the engine's contract is anchored to
        // the primary solver loop.
        let outcome = solo(1, &[1.0, 5.0, 9.0], tight());
        let mut solver = Solver::from_problem(
            consensus(1, &[1.0, 5.0, 9.0]),
            SolverOptions {
                stopping: tight(),
                ..SolverOptions::default()
            },
        );
        let report = solver.run(2000);
        assert_eq!(outcome.iterations, report.iterations);
        assert_eq!(outcome.store.z, solver.store().z);
    }
}
