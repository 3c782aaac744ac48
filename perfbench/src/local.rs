//! The `local_stack` and `local_failover` workloads: one closed-loop
//! caller driving `marlin_core::LocalCluster` directly, one synchronous
//! call at a time.
//!
//! One script is a fixed, seeded sequence: a Zipfian stream of 16-op
//! YCSB transactions (a quarter read-only) and a single-granule `migrate`
//! of the just-used granule after every 10th transaction. `local_failover`
//! adds a failover after every 2,500th (`kill`, `recovery_migrate` of all
//! the victim's granules, a read-back of every acknowledged write on
//! them, `delete_node`, `add_node` of a replacement). A shadow map of
//! acknowledged writes checks every value read.
//!
//! `local_failover` fails its read-back checks on the current program:
//! recovery replays the logs in log-id order rather than commit order
//! and serves stale rows (`tests::lazy_replay_serves_stale_rows`). It is
//! therefore not one of `BENCHMARK.json`'s workloads until recovery is
//! fixed; `local_stack` runs the same script without the failovers.

use crate::spans::Spans;
use crate::stats::quantile;
use crate::{Outcome, Rep};
use bytes::Bytes;
use marlin_common::{ClusterConfig, GranuleId, GranuleLayout, NodeId, TableId};
use marlin_core::LocalCluster;
use marlin_sim::DetRng;
use marlin_workload::{YcsbConfig, YcsbGenerator};
use std::time::Instant;

const TABLE: TableId = TableId(0);
const GRANULES: u64 = 4_096;
const NODES: u32 = 8;
/// A script is short (a few seconds) so that a measurement holds several:
/// 10,000 transactions, 1,000 migrations and, with failovers, three
/// failovers.
const TXNS: usize = 10_000;
/// Seconds of `--seconds` one script counts for. An untraced script takes
/// about 5 s of wall time on the reference host (2 cores), 4 s of it in
/// the untimed invariant checks after each migration. Counting it as
/// 2.5 s gives eight scripts at `--seconds 20`, which the best script's
/// figures need: over ten seeds the highest `work_per_s` of 5, 8 and 10
/// scripts spread by 24%, 16% and 15% (quartile distance over median).
const REP_SECONDS: f64 = 2.5;
const MIGRATE_EVERY: usize = 10;
const FAILOVER_EVERY: usize = 2_500;
const READ_ONLY_SHARE: f64 = 0.25;
const THETA: f64 = 0.9;

fn config() -> ClusterConfig {
    ClusterConfig {
        initial_nodes: (0..NODES).map(NodeId).collect(),
        tables: vec![YcsbConfig::paper_layout(TABLE, GRANULES)],
        ..ClusterConfig::default()
    }
}

/// Compare the values a transaction read with the acknowledged writes.
pub fn check_reads(
    keys: &[u64],
    got: &[Option<Bytes>],
    shadow: &[Option<Bytes>],
) -> Result<(), String> {
    if keys.len() != got.len() {
        return Err(format!(
            "{} keys read, {} values back",
            keys.len(),
            got.len()
        ));
    }
    for (key, value) in keys.iter().zip(got) {
        let want = &shadow[*key as usize];
        if value != want {
            return Err(format!("key {key}: read {value:?}, acknowledged {want:?}"));
        }
    }
    Ok(())
}

/// Totals the storage and engine layers count, summed over every log and
/// every node runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    records: u64,
    bytes: u64,
    cas_attempts: u64,
    cas_failures: u64,
    lock_acquisitions: u64,
    lock_conflicts: u64,
}

impl Counters {
    fn read(cluster: &LocalCluster) -> Self {
        let mut c = Counters::default();
        let storage = cluster.storage();
        for log in storage.log_ids() {
            let s = storage.stats(log).expect("listed log exists");
            c.records += s.end_lsn.0;
            c.bytes += s.bytes_appended;
            c.cas_attempts += s.cas_attempts;
            c.cas_failures += s.cas_failures;
        }
        for id in cluster.node_ids() {
            let locks = &cluster.node(id).locks;
            c.lock_acquisitions += locks.acquisitions();
            c.lock_conflicts += locks.conflicts();
        }
        c
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            records: self.records - o.records,
            bytes: self.bytes - o.bytes,
            cas_attempts: self.cas_attempts - o.cas_attempts,
            cas_failures: self.cas_failures - o.cas_failures,
            lock_acquisitions: self.lock_acquisitions - o.lock_acquisitions,
            lock_conflicts: self.lock_conflicts - o.lock_conflicts,
        }
    }

    fn add(&mut self, o: Counters) {
        self.records += o.records;
        self.bytes += o.bytes;
        self.cas_attempts += o.cas_attempts;
        self.cas_failures += o.cas_failures;
        self.lock_acquisitions += o.lock_acquisitions;
        self.lock_conflicts += o.lock_conflicts;
    }
}

/// What one script measured.
#[derive(Default)]
struct Script {
    setup_ns: u64,
    /// Wall time inside the stream's `LocalCluster` calls: transactions,
    /// migrations, and failovers up to the first recovered read.
    system_ns: u64,
    commits: u64,
    rw_ns: Vec<u64>,
    ro_ns: Vec<u64>,
    migrate_ns: Vec<u64>,
    failover_ns: Vec<u64>,
    recovery_ns: Vec<u64>,
    delete_ns: Vec<u64>,
    add_ns: Vec<u64>,
    scan_ns: Vec<u64>,
    check_ns: Vec<u64>,
    gen_ns: u64,
    /// Script totals (exact).
    totals: Counters,
    /// Deltas over read-write transactions, all transactions and
    /// migrations; filled by traced scripts only.
    rw_delta: Counters,
    txn_delta: Counters,
    migrate_delta: Counters,
    attempted: u64,
    failed: u64,
}

/// The cluster under test plus the caller's view of it.
struct Stack<'a> {
    cluster: LocalCluster,
    layout: GranuleLayout,
    owner: Vec<NodeId>,
    live: Vec<NodeId>,
    next_id: u32,
    shadow: Vec<Option<Bytes>>,
    spans: Option<&'a mut Spans>,
    /// The workload name and the transactions issued so far, for failure
    /// messages.
    workload: &'static str,
    step: usize,
    out: Script,
}

impl Stack<'_> {
    /// Time one call; with tracing on, also record its span.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut LocalCluster) -> T) -> (T, u64) {
        let id = self.spans.as_deref_mut().map(|s| s.open(name));
        let t0 = Instant::now();
        let out = f(&mut self.cluster);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(s), Some(id)) = (self.spans.as_deref_mut(), id) {
            s.close(id);
        }
        (out, ns)
    }

    fn open(&mut self, name: &'static str) -> Option<usize> {
        self.spans.as_deref_mut().map(|s| s.open(name))
    }

    fn close(&mut self, id: Option<usize>) {
        if let (Some(s), Some(id)) = (self.spans.as_deref_mut(), id) {
            s.close(id);
        }
    }

    fn counters(&self) -> Option<Counters> {
        self.spans.is_some().then(|| Counters::read(&self.cluster))
    }

    fn fail(&mut self, what: String) {
        eprintln!(
            "CHECK FAILED: {} at transaction {}: {what}",
            self.workload, self.step
        );
        self.out.failed += 1;
    }

    /// A read-only transaction whose values must match the shadow map.
    fn read_back(&mut self, name: &'static str, granule: GranuleId, keys: &[u64]) {
        let node = self.owner[granule.0 as usize];
        self.out.attempted += 1;
        let (res, _) = self.timed(name, |c| c.user_txn(node, TABLE, keys, &[]));
        match res.map_err(|e| e.to_string()) {
            Ok(got) => {
                if let Err(e) = check_reads(keys, &got, &self.shadow) {
                    self.fail(e);
                }
            }
            Err(e) => self.fail(format!("read-back on {node}: {e}")),
        }
    }

    fn check_invariants(&mut self) {
        self.out.attempted += 1;
        let (res, ns) = self.timed("core.check_invariants", |c| c.check_invariants());
        self.out.check_ns.push(ns);
        if let Err(v) = res {
            self.fail(format!("invariants violated: {v:?}"));
        }
    }

    /// `ScanGTableTxn` on `node` must report every granule's owner. The
    /// scan may also carry stale forwarding entries from peers whose
    /// partition cache has not caught up, so only coverage is checked.
    fn scan(&mut self, node: NodeId) {
        self.out.attempted += 1;
        let (res, ns) = self.timed("core.scan_gtable", |c| c.scan_gtable(node));
        self.out.scan_ns.push(ns);
        match res {
            Ok(entries) => {
                let mut reported = vec![false; GRANULES as usize];
                for (g, meta) in &entries {
                    if self.owner[g.0 as usize] == meta.owner {
                        reported[g.0 as usize] = true;
                    }
                }
                if let Some(g) = reported.iter().position(|r| !r) {
                    let msg = format!("scan_gtable on {node} omits the owner of granule {g}");
                    self.fail(msg);
                }
            }
            Err(e) => self.fail(format!("scan_gtable: {e}")),
        }
    }

    fn txn(&mut self, i: usize, gen: &mut YcsbGenerator, choice: &mut DetRng) -> GranuleId {
        let id = self.open("workload.gen");
        let t0 = Instant::now();
        let template = gen.next_txn();
        let read_only = choice.chance(READ_ONLY_SHARE);
        let mut reads = Vec::with_capacity(template.ops.len());
        let mut writes = Vec::with_capacity(template.ops.len());
        for op in &template.ops {
            if read_only || !op.write {
                reads.push(op.key);
            } else {
                let mut value = op.key.to_le_bytes().to_vec();
                value.extend_from_slice(&(i as u64).to_le_bytes());
                writes.push((op.key, Bytes::from(value)));
            }
        }
        self.out.gen_ns += t0.elapsed().as_nanos() as u64;
        self.close(id);

        let granule = self
            .layout
            .granule_of(template.anchor)
            .expect("key in table");
        let node = self.owner[granule.0 as usize];
        let before = self.counters();
        let name = if writes.is_empty() {
            "core.user_txn_ro"
        } else {
            "core.user_txn_rw"
        };
        self.out.attempted += 1;
        let (res, ns) = self.timed(name, |c| c.user_txn(node, TABLE, &reads, &writes));
        if let (Some(before), Some(after)) = (before, self.counters()) {
            let d = after.minus(before);
            self.out.txn_delta.add(d);
            if !writes.is_empty() {
                self.out.rw_delta.add(d);
            }
        }
        self.out.system_ns += ns;
        match res.map_err(|e| e.to_string()) {
            Ok(got) => {
                let id = self.open("bench.check_reads");
                let checked = check_reads(&reads, &got, &self.shadow);
                self.close(id);
                if let Err(e) = checked {
                    self.fail(e);
                }
                for (key, value) in writes.iter().cloned() {
                    self.shadow[key as usize] = Some(value);
                }
                self.out.commits += 1;
                if writes.is_empty() {
                    self.out.ro_ns.push(ns);
                } else {
                    self.out.rw_ns.push(ns);
                }
            }
            Err(e) => self.fail(format!("user_txn on {node}: {e}")),
        }
        granule
    }

    fn migrate(&mut self, granule: GranuleId, choice: &mut DetRng) {
        let src = self.owner[granule.0 as usize];
        let targets: Vec<NodeId> = self.live.iter().copied().filter(|&n| n != src).collect();
        let dst = *choice.pick(&targets);
        let before = self.counters();
        self.out.attempted += 1;
        let (res, ns) = self.timed("core.migrate", |c| {
            c.migrate(src, dst, TABLE, vec![granule])
        });
        if let (Some(before), Some(after)) = (before, self.counters()) {
            self.out.migrate_delta.add(after.minus(before));
        }
        self.out.system_ns += ns;
        match res {
            Ok(()) => {
                self.owner[granule.0 as usize] = dst;
                self.out.migrate_ns.push(ns);
            }
            Err(e) => self.fail(format!("migrate {granule} {src}->{dst}: {e}")),
        }
        self.check_invariants();
    }

    /// Keys of `granule` holding an acknowledged write.
    fn written_keys(&self, granule: GranuleId) -> Vec<u64> {
        let range = self.layout.range_of(granule);
        (range.lo..range.hi)
            .filter(|&k| self.shadow[k as usize].is_some())
            .collect()
    }

    fn failover(&mut self, choice: &mut DetRng) {
        // A victim that owns nothing would have nothing to recover.
        let candidates: Vec<NodeId> = self
            .live
            .iter()
            .copied()
            .filter(|n| self.owner.contains(n))
            .collect();
        let victim = *choice.pick(&candidates);
        let survivors: Vec<NodeId> = self.live.iter().copied().filter(|&n| n != victim).collect();
        let lost: Vec<GranuleId> = (0..GRANULES)
            .map(GranuleId)
            .filter(|g| self.owner[g.0 as usize] == victim)
            .collect();
        let mut plan: Vec<(NodeId, Vec<GranuleId>)> =
            survivors.iter().map(|&n| (n, Vec::new())).collect();
        for (i, g) in lost.iter().enumerate() {
            plan[i % survivors.len()].1.push(*g);
        }
        let first_keys = self.written_keys(lost[0]);
        let first_keys: Vec<u64> = if first_keys.is_empty() {
            vec![self.layout.range_of(lost[0]).lo]
        } else {
            first_keys.into_iter().take(16).collect()
        };

        self.out.attempted += 1;
        let span = self.open("core.failover");
        let t0 = Instant::now();
        self.cluster.kill(victim);
        for (dst, granules) in plan {
            if granules.is_empty() {
                continue;
            }
            let (res, ns) = self.timed("core.recovery_migrate", |c| {
                c.recovery_migrate(dst, victim, granules.clone())
            });
            self.out.recovery_ns.push(ns);
            match res {
                Ok(()) => granules.iter().for_each(|g| self.owner[g.0 as usize] = dst),
                Err(e) => self.fail(format!("recovery_migrate {victim}->{dst}: {e}")),
            }
        }
        self.read_back("core.user_txn_first_read", lost[0], &first_keys);
        let failover_ns = t0.elapsed().as_nanos() as u64;
        self.close(span);
        self.out.failover_ns.push(failover_ns);
        self.out.system_ns += failover_ns;

        // Every acknowledged write on a recovered granule reads back.
        let span = self.open("bench.read_back");
        for &g in &lost {
            for chunk in self.written_keys(g).chunks(16) {
                self.read_back("core.user_txn_read_back", g, chunk);
            }
        }
        self.close(span);

        let coordinator = survivors[0];
        self.out.attempted += 1;
        let (res, ns) = self.timed("core.delete_node", |c| c.delete_node(coordinator, victim));
        self.out.delete_ns.push(ns);
        if let Err(e) = res {
            self.fail(format!("delete_node {victim}: {e}"));
        }
        let replacement = NodeId(self.next_id);
        self.next_id += 1;
        self.out.attempted += 1;
        let (res, ns) = self.timed("core.add_node", |c| {
            c.add_node(replacement, format!("10.0.1.{}:5000", replacement.0))
        });
        self.out.add_ns.push(ns);
        if let Err(e) = res {
            self.fail(format!("add_node {replacement}: {e}"));
        }
        self.live = survivors;
        self.live.push(replacement);
        self.check_invariants();
        self.scan(coordinator);
    }
}

fn workload_name(failovers: bool) -> &'static str {
    if failovers {
        "local_failover"
    } else {
        "local_stack"
    }
}

/// Run one script on a freshly bootstrapped cluster.
fn script(seed: u64, failovers: bool, spans: Option<&mut Spans>) -> Script {
    let cfg = config();
    let layout = cfg.tables[0].clone();
    let root = DetRng::seed(seed);
    let mut gen = YcsbGenerator::new(YcsbConfig::zipfian(layout.clone(), THETA), root.fork(1));
    let mut choice = root.fork(2);
    let mut spans = spans;
    let root_span = spans.as_deref_mut().map(|s| {
        s.begin_run();
        s.open("bench.script")
    });

    let t0 = Instant::now();
    let cluster = match spans.as_deref_mut() {
        Some(s) => s.time("core.bootstrap", || LocalCluster::bootstrap(&cfg)),
        None => LocalCluster::bootstrap(&cfg),
    };
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let mut owner = vec![NodeId(0); GRANULES as usize];
    for (_, g, n) in cfg.initial_assignment() {
        owner[g.0 as usize] = n;
    }
    let keys = layout.keyspace.hi as usize;
    let mut stack = Stack {
        cluster,
        layout,
        owner,
        live: cfg.initial_nodes.clone(),
        next_id: NODES,
        shadow: vec![None; keys],
        spans,
        workload: workload_name(failovers),
        step: 0,
        out: Script {
            setup_ns,
            ..Script::default()
        },
    };
    let start = Counters::read(&stack.cluster);
    for i in 1..=TXNS {
        stack.step = i;
        let granule = stack.txn(i, &mut gen, &mut choice);
        if i % MIGRATE_EVERY == 0 {
            stack.migrate(granule, &mut choice);
        }
        if failovers && i % FAILOVER_EVERY == 0 && i < TXNS {
            stack.failover(&mut choice);
        }
    }
    stack.scan(stack.live[0]);
    stack.out.totals = Counters::read(&stack.cluster).minus(start);
    if let (Some(s), Some(id)) = (stack.spans.as_deref_mut(), root_span) {
        s.close(id);
    }
    stack.out
}

/// Checks that an exact count repeats across the scripts of one seed.
struct Repeats<T> {
    workload: &'static str,
    first: Option<T>,
    mismatches: u64,
}

impl<T: Copy + PartialEq + std::fmt::Debug> Repeats<T> {
    fn new(workload: &'static str) -> Self {
        Repeats {
            workload,
            first: None,
            mismatches: 0,
        }
    }

    fn check(&mut self, what: &str, value: T) {
        match self.first {
            None => self.first = Some(value),
            Some(first) if first == value => {}
            Some(first) => {
                eprintln!(
                    "CHECK FAILED: {}: {what} {value:?} differ from the first script's {first:?}",
                    self.workload
                );
                self.mismatches += 1;
            }
        }
    }
}

fn txn_latencies(s: &Script) -> impl Iterator<Item = u64> + '_ {
    s.rw_ns.iter().chain(&s.ro_ns).copied()
}

pub fn run_workload(failovers: bool, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let workload = workload_name(failovers);
    let count = crate::repetitions(REP_SECONDS, seconds);
    let mut out = Outcome::default();
    let mut totals = Repeats::new(workload);
    let mut deltas = Repeats::new(workload);
    let mut scripts: Vec<Script> = Vec::new();
    let mut traced: Vec<Script> = Vec::new();
    let mut spans = Spans::default();
    let mut reps = Vec::new();
    // A traced measurement alternates untraced and traced scripts so host
    // drift hits both alike.
    let plain_count = if trace { (count / 2).max(1) } else { count };
    for _ in 0..plain_count {
        let s = script(seed, failovers, None);
        totals.check("storage and lock totals", s.totals);
        if !trace {
            if scripts.is_empty() {
                // Later scripts reuse freed memory unevenly, so the peak
                // is taken over the first script alone.
                out.put("peak_rss_mb", crate::stats::peak_rss_mb());
            }
            reps.push(Rep {
                work_per_s: s.commits as f64 / (s.system_ns as f64 / 1e9),
                setup_s: crate::setup_median(s.setup_ns as f64 / 1e9, bootstrap_s),
                ops: txn_latencies(&s).collect(),
                reconfigs: s.migrate_ns.clone(),
            });
        }
        scripts.push(s);
        if trace {
            let t = script(seed, failovers, Some(&mut spans));
            totals.check("storage and lock totals", t.totals);
            deltas.check(
                "per-call counter deltas",
                (t.rw_delta, t.txn_delta, t.migrate_delta),
            );
            traced.push(t);
        }
    }
    for s in scripts.iter().chain(&traced) {
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
    out.failed += totals.mismatches + deltas.mismatches;

    if trace {
        crate::write_spans(workload, seed, &spans);
        per_layer(&scripts, &traced, &mut out);
    } else {
        crate::put_end_to_end(&mut out, &reps);
    }
    out
}

/// Time one more bootstrap of the workload's cluster, seconds.
fn bootstrap_s() -> f64 {
    let cfg = config();
    let t0 = Instant::now();
    let cluster = LocalCluster::bootstrap(&cfg);
    let s = t0.elapsed().as_secs_f64();
    drop(cluster);
    s
}

fn per_layer(plain: &[Script], traced: &[Script], out: &mut Outcome) {
    let all = |f: fn(&Script) -> &Vec<u64>| -> Vec<u64> {
        traced.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let p50 = |f: fn(&Script) -> &Vec<u64>| quantile(&all(f), 0.5) as f64;
    let first = &traced[0];
    let rw = first.rw_ns.len().max(1) as f64;
    let txns = (first.rw_ns.len() + first.ro_ns.len()).max(1) as f64;
    let migrations = first.migrate_ns.len().max(1) as f64;
    let gen_ns: u64 = traced.iter().map(|s| s.gen_ns).sum();
    let gen_txns: usize = traced.iter().map(|s| s.rw_ns.len() + s.ro_ns.len()).sum();
    let plain_txns: Vec<u64> = plain.iter().flat_map(txn_latencies).collect();
    let traced_txns: Vec<u64> = traced.iter().flat_map(txn_latencies).collect();

    out.put("core.user_txn_rw.p50_us", p50(|s| &s.rw_ns) / 1e3);
    out.put("core.user_txn_ro.p50_us", p50(|s| &s.ro_ns) / 1e3);
    out.put(
        "core.migrate.p95_us",
        quantile(&all(|s| &s.migrate_ns), 0.95) as f64 / 1e3,
    );
    out.put("core.failover.ms", p50(|s| &s.failover_ns) / 1e6);
    out.put("core.recovery_migrate.ms", p50(|s| &s.recovery_ns) / 1e6);
    out.put("core.delete_node.us", p50(|s| &s.delete_ns) / 1e3);
    out.put("core.add_node.us", p50(|s| &s.add_ns) / 1e3);
    out.put("core.scan_gtable.us", p50(|s| &s.scan_ns) / 1e3);
    out.put("core.check_invariants.ms", p50(|s| &s.check_ns) / 1e6);
    out.put(
        "storage.appends_per_txn",
        first.rw_delta.records as f64 / rw,
    );
    out.put("storage.bytes_per_txn", first.rw_delta.bytes as f64 / rw);
    out.put(
        "storage.cas_attempts_per_migration",
        first.migrate_delta.cas_attempts as f64 / migrations,
    );
    out.put(
        "storage.cas_failure_ratio",
        first.totals.cas_failures as f64 / first.totals.cas_attempts.max(1) as f64,
    );
    out.put(
        "engine.lock_acquisitions_per_txn",
        first.txn_delta.lock_acquisitions as f64 / txns,
    );
    out.put("engine.lock_conflicts", first.totals.lock_conflicts as f64);
    out.put(
        "workload.gen.us_per_txn",
        gen_ns as f64 / gen_txns.max(1) as f64 / 1e3,
    );
    out.put(
        "trace_overhead_pct",
        100.0 * (quantile(&traced_txns, 0.5) as f64 / quantile(&plain_txns, 0.5) as f64 - 1.0),
    );
    out.notes.push(format!(
        "{} untraced and {} traced scripts",
        plain.len(),
        traced.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_common::KeyRange;

    /// Reproduces the recovery defect that fails `local_failover`'s
    /// read-back: a granule written on N2, moved to N1 and written again
    /// is recovered with N2's older value, because recovery replays N1's
    /// log before N2's.
    #[test]
    #[ignore = "fails: LocalCluster recovery replays logs in log-id order, not commit order"]
    fn lazy_replay_serves_stale_rows() {
        let cfg = ClusterConfig {
            initial_nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            tables: vec![GranuleLayout::uniform(
                TABLE,
                KeyRange::new(0, 300),
                3,
                64 * 1024,
                1024,
            )],
            ..ClusterConfig::default()
        };
        let mut c = LocalCluster::bootstrap(&cfg);
        let write = |c: &mut LocalCluster, node, value: &'static [u8]| {
            c.user_txn(node, TABLE, &[], &[(250, Bytes::from_static(value))])
                .expect("write commits");
        };
        write(&mut c, NodeId(2), b"old");
        c.migrate(NodeId(2), NodeId(1), TABLE, vec![GranuleId(2)])
            .expect("migrate");
        write(&mut c, NodeId(1), b"new");
        c.kill(NodeId(1));
        c.recovery_migrate(NodeId(0), NodeId(1), vec![GranuleId(2)])
            .expect("recovery");
        let got = c.user_txn(NodeId(0), TABLE, &[250], &[]).expect("read");
        assert_eq!(got[0], Some(Bytes::from_static(b"new")));
    }

    #[test]
    fn planted_corrupted_read_fails_the_check() {
        let cfg = ClusterConfig {
            initial_nodes: vec![NodeId(0), NodeId(1)],
            tables: vec![GranuleLayout::uniform(
                TABLE,
                KeyRange::new(0, 64),
                4,
                64 * 1024,
                1024,
            )],
            ..ClusterConfig::default()
        };
        let mut cluster = LocalCluster::bootstrap(&cfg);
        let mut shadow: Vec<Option<Bytes>> = vec![None; 64];
        let value = Bytes::from_static(b"acknowledged");
        cluster
            .user_txn(NodeId(0), TABLE, &[], &[(3, value.clone())])
            .expect("write commits");
        shadow[3] = Some(value);
        let keys = [3, 4];
        let got = cluster
            .user_txn(NodeId(0), TABLE, &keys, &[])
            .expect("read");
        assert!(check_reads(&keys, &got, &shadow).is_ok());

        let mut corrupted = got.clone();
        corrupted[0] = Some(Bytes::from_static(b"acknowledgeD"));
        assert!(check_reads(&keys, &corrupted, &shadow).is_err());
        corrupted[0] = None;
        assert!(check_reads(&keys, &corrupted, &shadow).is_err());
        assert!(check_reads(&keys, &got[..1], &shadow).is_err());
    }
}
