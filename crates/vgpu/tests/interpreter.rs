//! Behavioral tests for the SIMT interpreter: semantics (results) and cost
//! model (stats) together.

use paraprox_ir::{
    AtomicOp, Expr, FuncBuilder, KernelBuilder, LoopCond, LoopStep, MemSpace, Program, Scalar, Ty,
};
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2, LaunchError};

fn gpu() -> Device {
    Device::new(DeviceProfile::gtx560())
}

#[test]
fn map_kernel_computes_per_thread() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("affine");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let x = kb.let_("x", kb.load(input, gid.clone()));
    kb.store(output, gid, x * Expr::f32(3.0) + Expr::f32(1.0));
    let kid = program.add_kernel(kb.finish());

    let mut d = gpu();
    let data: Vec<f32> = (0..128).map(|i| i as f32).collect();
    let input = d.alloc_f32(MemSpace::Global, &data);
    let output = d.alloc_f32(MemSpace::Global, &vec![0.0; 128]);
    d.launch(
        &program,
        kid,
        Dim2::linear(4),
        Dim2::linear(32),
        &[input.into(), output.into()],
    )
    .unwrap();
    let out = d.read_f32(output).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i as f32 * 3.0 + 1.0);
    }
}

#[test]
fn divergent_if_executes_both_arms() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("parity");
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let even = gid.clone().rem(Expr::i32(2)).eq_(Expr::i32(0));
    kb.if_else(
        even,
        |kb| kb.store(output, gid.clone(), Expr::f32(1.0)),
        |kb| kb.store(output, gid.clone(), Expr::f32(-1.0)),
    );
    let kid = program.add_kernel(kb.finish());

    let mut d = gpu();
    let output = d.alloc_f32(MemSpace::Global, &vec![0.0; 64]);
    d.launch(
        &program,
        kid,
        Dim2::linear(2),
        Dim2::linear(32),
        &[output.into()],
    )
    .unwrap();
    let out = d.read_f32(output).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, if i % 2 == 0 { 1.0 } else { -1.0 });
    }
}

#[test]
fn tree_reduction_with_shared_memory_and_barriers() {
    // The canonical CUDA block reduction: load into shared, halve stride.
    let block = 64usize;
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("block_sum");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let shared = kb.shared_array("scratch", Ty::F32, block);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(shared, tid.clone(), kb.load(input, gid));
    kb.sync();
    kb.for_loop(
        "s",
        Expr::i32(block as i32 / 2),
        LoopCond::Gt(Expr::i32(0)),
        LoopStep::Shr(Expr::i32(1)),
        |kb, s| {
            kb.if_(tid.clone().lt(s.clone()), |kb| {
                let a = kb.let_("a", kb.load(shared, tid.clone()));
                let b = kb.let_("b", kb.load(shared, tid.clone() + s.clone()));
                kb.store(shared, tid.clone(), a + b);
            });
            kb.sync();
        },
    );
    kb.if_(tid.clone().eq_(Expr::i32(0)), |kb| {
        kb.store(
            output,
            KernelBuilder::block_id_x(),
            kb.load(shared, Expr::i32(0)),
        );
    });
    let kid = program.add_kernel(kb.finish());

    let mut d = gpu();
    let data: Vec<f32> = (0..block as i32 * 2).map(|i| i as f32).collect();
    let input = d.alloc_f32(MemSpace::Global, &data);
    let output = d.alloc_f32(MemSpace::Global, &[0.0, 0.0]);
    d.launch(
        &program,
        kid,
        Dim2::linear(2),
        Dim2::linear(block),
        &[input.into(), output.into()],
    )
    .unwrap();
    let out = d.read_f32(output).unwrap();
    let expected0: f32 = (0..block as i32).map(|i| i as f32).sum();
    let expected1: f32 = (block as i32..2 * block as i32).map(|i| i as f32).sum();
    assert_eq!(out, vec![expected0, expected1]);
}

#[test]
fn atomics_accumulate_across_all_threads() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("count");
    let counter = kb.buffer("counter", Ty::I32, MemSpace::Global);
    kb.atomic(AtomicOp::Add, counter, Expr::i32(0), Expr::i32(1));
    let kid = program.add_kernel(kb.finish());

    let mut d = gpu();
    let counter = d.alloc_i32(MemSpace::Global, &[0]);
    let stats = d
        .launch(
            &program,
            kid,
            Dim2::linear(4),
            Dim2::linear(32),
            &[counter.into()],
        )
        .unwrap();
    assert_eq!(d.read_i32(counter).unwrap(), vec![128]);
    assert_eq!(stats.atomics, 128);
    // Atomics serialize: cost scales with the lane count, so it dominates
    // a same-shaped kernel doing a plain store.
    assert!(stats.memory_cycles >= 128 * d.profile().atomic_lat);
}

#[test]
fn coalesced_loads_issue_fewer_transactions_than_gather() {
    let n = 256usize;
    let mut program = Program::new();

    // Coalesced: thread i loads element i.
    let mut kb = KernelBuilder::new("coalesced");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v = kb.let_("v", kb.load(input, gid.clone()));
    kb.store(output, gid, v);
    let coalesced = program.add_kernel(kb.finish());

    // Strided gather: thread i loads element (i * 33) % n — every lane a
    // different cache line region.
    let mut kb = KernelBuilder::new("gather");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let idx = kb.let_(
        "idx",
        (gid.clone() * Expr::i32(33)).rem(Expr::i32(n as i32)),
    );
    let v = kb.let_("v", kb.load(input, idx));
    kb.store(output, gid, v);
    let gather = program.add_kernel(kb.finish());

    let mut d = gpu();
    let data = vec![1.0f32; n];
    let input = d.alloc_f32(MemSpace::Global, &data);
    let output = d.alloc_f32(MemSpace::Global, &vec![0.0; n]);
    let grid = Dim2::linear(n / 32);
    let block = Dim2::linear(32);
    let args = [ArgValue::Buffer(input), ArgValue::Buffer(output)];
    let s_coalesced = d.launch(&program, coalesced, grid, block, &args).unwrap();
    d.flush_caches();
    let s_gather = d.launch(&program, gather, grid, block, &args).unwrap();

    assert!(
        s_gather.load_transactions > 2 * s_coalesced.load_transactions,
        "gather {} vs coalesced {}",
        s_gather.load_transactions,
        s_coalesced.load_transactions
    );
    assert!(s_gather.serialization_overhead() > s_coalesced.serialization_overhead());
}

#[test]
fn shared_memory_bank_conflicts_cost_extra() {
    // The conflict degree of a warp access is the largest number of
    // *distinct* words mapping to one of the 32 banks; lanes reading the
    // same word share it. Each kernel makes one store and one load per
    // warp, so `bank_conflict_extra` is twice the per-access extra.
    // stride 0: all lanes one word (broadcast); stride 1: each lane its
    // own bank; stride 2: two words per bank; stride 32: all lanes bank 0.
    let cases = [
        ("broadcast", 0, 0),
        ("conflict_free", 1, 0),
        ("stride_two", 2, 2),
        ("conflicted", 32, 62),
    ];
    let mut program = Program::new();
    for (name, stride, _) in cases {
        let mut kb = KernelBuilder::new(name);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let shared = kb.shared_array("s", Ty::F32, 32 * 32);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let idx = kb.let_("idx", tid.clone() * Expr::i32(stride));
        kb.store(shared, idx.clone(), Expr::f32(1.0));
        kb.sync();
        let v = kb.let_("v", kb.load(shared, idx));
        kb.store(output, tid, v);
        program.add_kernel(kb.finish());
    }

    let mut d = gpu();
    let out = d.alloc_f32(MemSpace::Global, &[0.0; 32]);
    let args = [ArgValue::Buffer(out)];
    let mut cycles = Vec::new();
    for (name, _, extra) in cases {
        let kid = program.kernel_by_name(name).unwrap();
        let s = d
            .launch(&program, kid, Dim2::linear(1), Dim2::linear(32), &args)
            .unwrap();
        assert_eq!(s.bank_conflict_extra, extra, "{name}");
        assert_eq!(s.shared_accesses, 2, "{name}");
        cycles.push(s.memory_cycles);
    }
    assert!(cycles[1] < cycles[2] && cycles[2] < cycles[3]);
}

#[test]
fn constant_broadcast_is_cheap_divergent_constant_serializes() {
    let mut program = Program::new();
    for (name, use_gid) in [("broadcast", false), ("divergent", true)] {
        let mut kb = KernelBuilder::new(name);
        let table = kb.buffer("table", Ty::F32, MemSpace::Constant);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let idx = if use_gid { gid.clone() } else { Expr::i32(0) };
        let v = kb.let_("v", kb.load(table, idx));
        kb.store(output, gid, v);
        program.add_kernel(kb.finish());
    }
    let broadcast = program.kernel_by_name("broadcast").unwrap();
    let divergent = program.kernel_by_name("divergent").unwrap();

    let mut d = gpu();
    let table = d.alloc_f32(MemSpace::Constant, &vec![2.5; 64]);
    let out = d.alloc_f32(MemSpace::Global, &vec![0.0; 64]);
    let args = [ArgValue::Buffer(table), ArgValue::Buffer(out)];
    let s_b = d
        .launch(
            &program,
            broadcast,
            Dim2::linear(2),
            Dim2::linear(32),
            &args,
        )
        .unwrap();
    let s_d = d
        .launch(
            &program,
            divergent,
            Dim2::linear(2),
            Dim2::linear(32),
            &args,
        )
        .unwrap();
    assert!(s_d.load_transactions > s_b.load_transactions);
    assert_eq!(d.read_f32(out).unwrap(), vec![2.5; 64]);
}

#[test]
fn divergent_barrier_is_an_error() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("bad_sync");
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    kb.if_(tid.lt(Expr::i32(16)), |kb| kb.sync());
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let err = d
        .launch(&program, kid, Dim2::linear(1), Dim2::linear(32), &[])
        .unwrap_err();
    assert!(matches!(err, LaunchError::Eval { .. }));
    assert!(err.to_string().contains("divergent"));
}

#[test]
fn out_of_bounds_access_is_an_error() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("oob");
    let buf = kb.buffer("b", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v = kb.let_("v", kb.load(buf, gid.clone() + Expr::i32(1000)));
    kb.store(buf, gid, v);
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let buf = d.alloc_f32(MemSpace::Global, &[0.0; 8]);
    let err = d
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(8),
            &[buf.into()],
        )
        .unwrap_err();
    assert!(err.to_string().contains("out of bounds"));
}

#[test]
fn device_function_calls_with_divergence() {
    let mut program = Program::new();
    // f(x) = x > 0 ? sqrt(x) : 0   — divergent branch inside the function.
    let mut fb = FuncBuilder::new("safe_sqrt", Ty::F32);
    let x = fb.scalar("x", Ty::F32);
    fb.if_else(
        x.clone().gt(Expr::f32(0.0)),
        |fb| fb.ret(x.clone().sqrt()),
        |fb| fb.ret(Expr::f32(0.0)),
    );
    let f = program.add_func(fb.finish());

    let mut kb = KernelBuilder::new("apply");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v = kb.let_("v", kb.load(input, gid.clone()));
    kb.store(
        output,
        gid,
        Expr::Call {
            func: f,
            args: vec![v],
        },
    );
    let kid = program.add_kernel(kb.finish());

    let mut d = gpu();
    let data: Vec<f32> = (-16..16).map(|i| i as f32).collect();
    let input = d.alloc_f32(MemSpace::Global, &data);
    let output = d.alloc_f32(MemSpace::Global, &[0.0; 32]);
    d.launch(
        &program,
        kid,
        Dim2::linear(1),
        Dim2::linear(32),
        &[input.into(), output.into()],
    )
    .unwrap();
    let out = d.read_f32(output).unwrap();
    for (i, v) in out.iter().enumerate() {
        let x = data[i];
        let expected = if x > 0.0 { x.sqrt() } else { 0.0 };
        assert_eq!(*v, expected);
    }
}

#[test]
fn loop_divergence_costs_slowest_lane() {
    // Thread i loops i times; warp cost is driven by the slowest lane.
    let mut program = Program::new();
    for (name, uniform) in [("uniform", true), ("skewed", false)] {
        let mut kb = KernelBuilder::new(name);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        let bound = if uniform {
            Expr::i32(16)
        } else {
            // lane 31 loops 31*4 times, others less: same *total* work as
            // uniform=16 would be 32*16=512 vs sum(i*4)/... not equal; the
            // point is per-warp cost tracks the max lane, so skewed costs
            // more compute than its average lane count implies.
            tid.clone() * Expr::i32(4)
        };
        kb.for_up("i", Expr::i32(0), bound, Expr::i32(1), |kb, _i| {
            kb.assign(acc, Expr::Var(acc) + Expr::f32(1.0));
        });
        kb.store(output, tid, Expr::Var(acc));
        program.add_kernel(kb.finish());
    }
    let uniform = program.kernel_by_name("uniform").unwrap();
    let skewed = program.kernel_by_name("skewed").unwrap();
    let mut d = gpu();
    let out = d.alloc_f32(MemSpace::Global, &[0.0; 32]);
    let args = [ArgValue::Buffer(out)];
    let s_uniform = d
        .launch(&program, uniform, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    let s_skewed = d
        .launch(&program, skewed, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    // skewed max lane = 31*4 = 124 iterations > uniform 16 iterations.
    assert!(s_skewed.compute_cycles > s_uniform.compute_cycles);
    // Results: lane i has i*4 iterations.
    let vals = d.read_f32(out).unwrap();
    assert_eq!(vals[0], 0.0);
    assert_eq!(vals[31], 124.0);
}

#[test]
fn two_dimensional_launch_indices() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("idx2d");
    let output = kb.buffer("out", Ty::I32, MemSpace::Global);
    let w = kb.scalar("w", Ty::I32);
    let gx = kb.let_("gx", KernelBuilder::global_id_x());
    let gy = kb.let_("gy", KernelBuilder::global_id_y());
    let flat = kb.let_("flat", gy.clone() * w + gx.clone());
    kb.store(output, flat.clone(), flat);
    let kid = program.add_kernel(kb.finish());

    let mut d = gpu();
    let w = 8usize;
    let h = 4usize;
    let out = d.alloc_i32(MemSpace::Global, &vec![-1; w * h]);
    d.launch(
        &program,
        kid,
        Dim2::new(2, 2),
        Dim2::new(4, 2),
        &[out.into(), Scalar::I32(w as i32).into()],
    )
    .unwrap();
    let vals = d.read_i32(out).unwrap();
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v as usize, i);
    }
}

#[test]
fn cpu_profile_executes_same_program_with_different_costs() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("expmap");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let x = kb.let_("x", kb.load(input, gid.clone()));
    kb.store(output, gid, x.exp());
    let kid = program.add_kernel(kb.finish());

    let run = |mut d: Device| -> (Vec<f32>, u64) {
        let input = d.alloc_f32(MemSpace::Global, &[0.0, 1.0, 2.0, 3.0]);
        let output = d.alloc_f32(MemSpace::Global, &[0.0; 4]);
        let stats = d
            .launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(4),
                &[input.into(), output.into()],
            )
            .unwrap();
        (d.read_f32(output).unwrap(), stats.compute_cycles)
    };
    let (gpu_out, gpu_cycles) = run(Device::new(DeviceProfile::gtx560()));
    let (cpu_out, cpu_cycles) = run(Device::new(DeviceProfile::core_i7_965()));
    assert_eq!(gpu_out, cpu_out);
    // exp is SFU-cheap on GPU, libm-expensive on CPU.
    assert!(cpu_cycles > gpu_cycles);
}
