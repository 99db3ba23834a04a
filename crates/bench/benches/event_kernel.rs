//! Event-kernel microbenches: the cost of the simulation substrate under
//! the SystemC-style model, isolated from the hysteresis physics.
//!
//! Three shapes bound the kernel overhead the `systemc-event-kernel`
//! backend pays on top of the direct model:
//!
//! * `schedule_drain_10k` — timed-queue throughput: 10 000 stimulus writes
//!   scheduled up front, then drained through `run_until` (heap push/pop
//!   plus the per-event settle machinery);
//! * `delta_storm_settle` — a single settle phase forced through 1 000
//!   delta cycles by a self-incrementing feedback process: pure per-cycle
//!   cost (commit, ready-set swap, one activation per cycle);
//! * `chain_sweep_1k` — the DC-sweep usage pattern of the JA module: one
//!   `write_initial` + `settle` per sample over a two-process
//!   combinational chain, reusing one kernel across all samples.
//!
//! Before timing anything, `main` asserts with a counting global
//! allocator that a *warm* kernel (scratch buffers already grown) runs
//! its delta cycles without a single heap allocation — the contract the
//! allocation-free overhaul introduced.

use criterion::{black_box, Criterion};
use hdl_kernel::kernel::Kernel;
use hdl_kernel::signal::SignalId;
use hdl_kernel::value::Value;
use hdl_kernel::SimTime;
use ja_bench::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A two-process combinational chain (`b = 2a`, `c = b + 1`) — the
/// smallest network that exercises signal propagation across delta
/// cycles.
fn chain_kernel() -> (Kernel, SignalId, SignalId) {
    let mut k = Kernel::new();
    let a = k.add_signal("a", Value::Real(0.0));
    let b = k.add_signal("b", Value::Real(0.0));
    let c = k.add_signal("c", Value::Real(0.0));
    k.add_process("double", &[a], move |ctx| {
        let x = ctx.read_real(a)?;
        ctx.write_real(b, 2.0 * x)
    })
    .expect("valid sensitivity");
    k.add_process("add_one", &[b], move |ctx| {
        let x = ctx.read_real(b)?;
        ctx.write_real(c, x + 1.0)
    })
    .expect("valid sensitivity");
    (k, a, c)
}

/// Asserts that a warm kernel runs a DC sweep without touching the heap:
/// after the scratch buffers have grown once, `write_initial` + `settle`
/// perform zero allocations across a thousand samples.
fn assert_warm_delta_cycles_allocate_nothing() {
    let (mut k, a, c) = chain_kernel();
    // Warm-up: grow the ready sets and the changed-signal buffer.
    for i in 0..16 {
        k.write_initial(a, Value::Real(f64::from(i)))
            .expect("write");
        k.settle().expect("settle");
    }
    let allocs_before = ALLOC.allocs();
    let live_before = ALLOC.live();
    for i in 0..1_000 {
        k.write_initial(a, Value::Real(f64::from(i)))
            .expect("write");
        k.settle().expect("settle");
    }
    let allocs = ALLOC.allocs() - allocs_before;
    let live = ALLOC.live().wrapping_sub(live_before);
    assert_eq!(
        allocs, 0,
        "a warm delta cycle must not allocate (saw {allocs} allocations)"
    );
    assert_eq!(live, 0, "warm settle must not retain bytes (saw {live})");
    assert_eq!(k.read_real(c).expect("read"), 2.0 * 999.0 + 1.0);
    println!("warm kernel: 1000 samples settled with 0 allocations, 0 bytes retained\n");
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_kernel");
    group.sample_size(20);

    // Timed-queue throughput: schedule a 10k-sample stimulus, then drain
    // it.  The kernel is reset and reused across iterations, so steady
    // state measures heap push/pop and the drain buffer, not Vec growth.
    {
        let (mut k, a, _c) = chain_kernel();
        group.bench_function("schedule_drain_10k", |b| {
            b.iter(|| {
                k.reset();
                for i in 1..=10_000u32 {
                    k.schedule_write(
                        SimTime::from_micros(u64::from(i)),
                        a,
                        Value::Real(f64::from(i)),
                    );
                }
                let events = k
                    .run_until(SimTime::from_micros(10_000))
                    .expect("drain stimulus");
                black_box(events)
            })
        });
    }

    // Pure delta-cycle cost: one settle phase forced through 1000 cycles
    // by a self-incrementing feedback counter (one activation, one commit
    // and one ready-set swap per cycle).
    {
        let mut k = Kernel::new().with_delta_limit(2_000);
        let n = k.add_signal("n", Value::Int(0));
        k.add_process("count_up", &[n], move |ctx| {
            let v = ctx.read_int(n)?;
            if v < 1_000 {
                ctx.write_int(n, v + 1)?;
            }
            Ok(())
        })
        .expect("valid sensitivity");
        group.bench_function("delta_storm_settle", |b| {
            b.iter(|| {
                k.reset();
                let cycles = k.settle().expect("settle");
                black_box(cycles)
            })
        });
    }

    // The JA-module usage pattern: one write_initial + settle per sample,
    // one kernel reused for the whole sweep.
    {
        let (mut k, a, c) = chain_kernel();
        group.bench_function("chain_sweep_1k", |b| {
            b.iter(|| {
                k.reset();
                for i in 0..1_000 {
                    k.write_initial(a, Value::Real(f64::from(i)))
                        .expect("write");
                    k.settle().expect("settle");
                }
                black_box(k.read_real(c).expect("read"))
            })
        });
    }

    // The real SystemC-style JA module on the paper's Fig. 1 stimulus,
    // reset and reused across iterations — module + kernel cost with no
    // scenario harness (no metrics extraction), and the steady-state shape
    // the `Kernel::reset` reuse contract targets.  The samples are
    // flattened once, outside the timed closure.
    {
        use hdl_models::comparison::fig1_schedule;
        use hdl_models::systemc::SystemCJaCore;
        use ja_hysteresis::backend::HysteresisBackend;
        let samples = fig1_schedule(10.0).expect("valid schedule").to_samples();
        let mut module = SystemCJaCore::date2006().expect("valid module");
        group.bench_function("ja_module_fig1_reused", |b| {
            b.iter(|| {
                HysteresisBackend::reset(&mut module).expect("reset");
                let curve = module.run_samples(&samples).expect("sweep");
                black_box(curve.len())
            })
        });
    }

    group.finish();
}

fn main() {
    assert_warm_delta_cycles_allocate_nothing();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
