//! `kvs-zipf95`: the §5.2 KVS (`darray-kvs` on `DArrayBackend`) under
//! YCSB Zipf 0.99 with 95 % gets over preloaded 100-byte values.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use darray::{ArrayOptions, Cluster, Ctx, GlobalArray, Sim, SimConfig, VTime};
use darray_kvs::{DArrayBackend, KvBackend, Kvs, KvsConfig, KvsView};
use workloads::{RequestDistribution, YcsbOp, YcsbSpec, YcsbStream};

use crate::{cluster_config, measure, on_threads, sorted, stream_seed, KvSpan, Rep, Spans};

const VALUE_BYTES: usize = 100;
/// App threads per node.
pub(crate) const THREADS: usize = 2;

/// Array-call spans of one app thread, shared by its two traced backends.
#[derive(Default)]
struct CallLog {
    calls: u64,
    busy_ns: u64,
    gets: Vec<u64>,
    wlocks: Vec<u64>,
}

enum Call {
    Get,
    Wlock,
    Other,
}

/// `DArrayBackend` with a span around every array call the store makes.
#[derive(Clone)]
struct Traced {
    inner: DArrayBackend,
    log: Arc<Mutex<CallLog>>,
}

impl Traced {
    fn record(&self, ctx: &Ctx, start: VTime, call: Call) {
        let ns = ctx.now() - start;
        let mut log = self.log.lock().expect("span log poisoned");
        log.calls += 1;
        log.busy_ns += ns;
        match call {
            Call::Get => log.gets.push(ns),
            Call::Wlock => log.wlocks.push(ns),
            Call::Other => {}
        }
    }
}

impl KvBackend for Traced {
    fn get(&self, ctx: &mut Ctx, i: usize) -> u64 {
        let t = ctx.now();
        let v = self.inner.get(ctx, i);
        self.record(ctx, t, Call::Get);
        v
    }
    fn set(&self, ctx: &mut Ctx, i: usize, v: u64) {
        let t = ctx.now();
        self.inner.set(ctx, i, v);
        self.record(ctx, t, Call::Other);
    }
    fn wlock(&self, ctx: &mut Ctx, i: usize) {
        let t = ctx.now();
        self.inner.wlock(ctx, i);
        self.record(ctx, t, Call::Wlock);
    }
    fn unlock(&self, ctx: &mut Ctx, i: usize) {
        let t = ctx.now();
        self.inner.unlock(ctx, i);
        self.record(ctx, t, Call::Other);
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// What one app thread did in one phase.
#[derive(Default)]
struct ThreadLog {
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    /// Key and result of every get, checked after the window.
    read: Vec<(u64, Option<Vec<u8>>)>,
    put_errors: u64,
    kv_get: KvSpan,
    kv_put: KvSpan,
    calls: CallLog,
}

fn ycsb(records: u64) -> YcsbSpec {
    YcsbSpec {
        records,
        get_ratio: 0.95,
        theta: 0.99,
        value_size: VALUE_BYTES,
        distribution: RequestDistribution::Zipfian,
    }
}

/// Store sized as in the Figure 17 benchmark.
fn kvs_config(records: u64) -> KvsConfig {
    KvsConfig {
        buckets: (records / 8).max(16),
        overflow_per_node: (records / 16).max(8),
        value_capacity: (records * 2 + 1024) * 256,
        nodes: crate::NODES,
    }
}

/// Issue YCSB operations until virtual time `end`. Versions are unique per
/// (phase, writer).
///
/// Gets read even keys and puts update odd keys. The store frees a replaced
/// pair at once, so a get that races a put of the same key can read the
/// freed block after a put of another key has reused it, and return a torn
/// value (about one get in 10^5 under this mix). Keeping the key sets apart
/// measures the store without that race, and lets every get be checked
/// against the preloaded value.
fn drive<B: KvBackend>(
    ctx: &mut Ctx,
    kv: &KvsView<B>,
    mut stream: YcsbStream,
    end: VTime,
    writer: u64,
    spans: Option<&Mutex<CallLog>>,
) -> ThreadLog {
    let mut log = ThreadLog::default();
    let mut version = 0;
    while ctx.now() < end {
        let before = spans.map(|s| {
            let s = s.lock().expect("span log poisoned");
            (s.calls, s.busy_ns)
        });
        let op = stream.next_op();
        let (span, ns) = match op {
            YcsbOp::Get(k) => {
                let k = k & !1;
                let t = ctx.now();
                let v = kv.get(ctx, &k.to_le_bytes());
                let ns = ctx.now() - t;
                log.get_ns.push(ns);
                log.read.push((k, v));
                (&mut log.kv_get, ns)
            }
            YcsbOp::Put(k) => {
                let k = k | 1;
                version += 1;
                let ver = writer << 32 | version;
                let val = YcsbStream::value_for(k, ver, VALUE_BYTES);
                let t = ctx.now();
                let r = kv.put(ctx, &k.to_le_bytes(), &val);
                let ns = ctx.now() - t;
                log.put_ns.push(ns);
                log.put_errors += u64::from(r.is_err());
                (&mut log.kv_put, ns)
            }
        };
        if let (Some(s), Some((calls0, busy0))) = (spans, before) {
            let s = s.lock().expect("span log poisoned");
            span.ops += 1;
            span.array_calls += s.calls - calls0;
            span.self_ns += ns - (s.busy_ns - busy0);
        }
    }
    log
}

/// One phase lasting `duration` virtual ns; `phase` keeps each phase's
/// streams and versions distinct.
fn phase(
    ctx: &mut Ctx,
    cluster: &Cluster,
    store: &Store,
    (seed, phase): (u64, u64),
    duration: VTime,
    traced: bool,
) -> Vec<ThreadLog> {
    let end = ctx.now() + duration;
    let store = store.clone();
    on_threads(ctx, cluster, THREADS, move |ctx, env| {
        let stream = YcsbStream::new(
            ycsb(store.records),
            stream_seed(seed, phase, env.node, env.thread),
        );
        let writer = phase << 16 | (env.node * env.threads_per_node + env.thread + 1) as u64;
        let (e, b) = (store.entries.on(env.node), store.bytes.on(env.node));
        if !traced {
            let kv = store.kvs.view(env.node, DArrayBackend(e), DArrayBackend(b));
            return drive(ctx, &kv, stream, end, writer, None);
        }
        let calls = Arc::new(Mutex::new(CallLog::default()));
        let wrap = |a| Traced {
            inner: DArrayBackend(a),
            log: calls.clone(),
        };
        let kv = store.kvs.view(env.node, wrap(e), wrap(b));
        let mut log = drive(ctx, &kv, stream, end, writer, Some(&calls));
        drop(kv);
        log.calls = Arc::into_inner(calls)
            .expect("the views holding the span log are dropped")
            .into_inner()
            .expect("span log poisoned");
        log
    })
}

/// The store's arrays and global state, cloned into every app thread.
#[derive(Clone)]
struct Store {
    records: u64,
    kvs: Kvs,
    entries: GlobalArray<u64>,
    bytes: GlobalArray<u64>,
}

pub(crate) fn run(
    records: u64,
    warmup_ns: VTime,
    window_ns: VTime,
    seed: u64,
    traced: bool,
) -> Rep {
    assert!(
        records.is_multiple_of(2),
        "odd put keys must stay below `records`"
    );
    let setup_start = Instant::now();
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cluster_config());
        let cfg = kvs_config(records);
        let store = Store {
            records,
            entries: cluster.alloc::<u64>(cfg.entry_array_len(), ArrayOptions::default()),
            bytes: cluster.alloc::<u64>(cfg.byte_array_words(), ArrayOptions::default()),
            kvs: Kvs::new(cfg),
        };
        let s = store.clone();
        on_threads(ctx, &cluster, 1, move |ctx, env| {
            let (e, b) = (s.entries.on(env.node), s.bytes.on(env.node));
            let kv = s.kvs.view(env.node, DArrayBackend(e), DArrayBackend(b));
            for k in (env.node as u64..records).step_by(env.nodes) {
                let val = YcsbStream::value_for(k, 0, VALUE_BYTES);
                kv.put(ctx, &k.to_le_bytes(), &val).expect("preload put");
            }
        });
        let mut logs = phase(ctx, &cluster, &store, (seed, 0), warmup_ns, false);
        let setup = setup_start.elapsed();

        let (window, mut virt, window_cpu) = measure(ctx, &cluster, |ctx| {
            phase(ctx, &cluster, &store, (seed, 1), window_ns, traced)
        });
        cluster.shutdown(ctx);

        virt.latency
            .insert("get", sorted(window.iter().map(|l| &l.get_ns)));
        virt.latency
            .insert("put", sorted(window.iter().map(|l| &l.put_ns)));
        virt.ops = virt.latency.values().map(|v| v.len() as u64).sum();
        let spans = Spans {
            array_get: sorted(window.iter().map(|l| &l.calls.gets)),
            array_wlock: sorted(window.iter().map(|l| &l.calls.wlocks)),
            kv_get: KvSpan::sum(window.iter().map(|l| l.kv_get)),
            kv_put: KvSpan::sum(window.iter().map(|l| l.kv_put)),
        };

        logs.extend(window);
        for log in logs {
            virt.attempted += (log.read.len() + log.put_ns.len()) as u64;
            virt.failed += log.put_errors;
            for (k, v) in log.read {
                let want = YcsbStream::value_for(k, 0, VALUE_BYTES);
                virt.failed += u64::from(v != Some(want));
            }
        }
        Rep {
            virt,
            spans: traced.then_some(spans),
            setup,
            window_cpu,
        }
    })
}
