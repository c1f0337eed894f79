//! The `PARAPROX_THREADS`, `PARAPROX_ENGINE` and `PARAPROX_NO_FUSE`
//! environment knobs.
//!
//! This lives in its own test binary: the knobs are read at
//! `Device::new` time from process-global environment state, so they
//! cannot safely share a process with tests that assume the defaults.
//! The single test covers every knob sequentially, including that a knob
//! changed after a device exists does not affect that device.

use paraprox_ir::{Expr, KernelBuilder, KernelId, MemSpace, Program, Ty};
use paraprox_vgpu::{Device, DeviceProfile, Dim2, ExecEngine, LaunchStats};

fn saxpy_like() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("fma");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let x = kb.let_("x", kb.load(input, gid.clone()));
    kb.store(out, gid, x * Expr::f32(3.0) + Expr::f32(1.0));
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

/// One four-block launch on `device`.
fn launch(device: &mut Device) -> LaunchStats {
    let (program, kid) = saxpy_like();
    let input = device.alloc_f32(MemSpace::Global, &[1.5; 128]);
    let out = device.alloc_f32(MemSpace::Global, &[0.0; 128]);
    device
        .launch(
            &program,
            kid,
            Dim2::linear(4),
            Dim2::linear(32),
            &[input.into(), out.into()],
        )
        .unwrap()
}

/// Two launches on a fresh bytecode device; the second launch's
/// `fusions_hit` tells whether fusion engaged.
fn second_launch_fusions() -> u64 {
    let mut device = Device::new(DeviceProfile::gtx560().with_engine(ExecEngine::Bytecode));
    launch(&mut device);
    launch(&mut device).fusions_hit
}

fn no_fuse() {
    // Unset (default on), set to a truthy value (off), set to ignored
    // values (still on), then the programmatic override beating the
    // environment.
    std::env::remove_var("PARAPROX_NO_FUSE");
    assert!(
        second_launch_fusions() > 0,
        "default: fusion should engage on the second launch"
    );

    std::env::set_var("PARAPROX_NO_FUSE", "1");
    assert_eq!(second_launch_fusions(), 0, "PARAPROX_NO_FUSE=1 disables");

    std::env::set_var("PARAPROX_NO_FUSE", "  yes  ");
    assert_eq!(second_launch_fusions(), 0, "any trimmed non-`0` disables");

    for ignored in ["", "   ", "0", " 0 "] {
        std::env::set_var("PARAPROX_NO_FUSE", ignored);
        assert!(
            second_launch_fusions() > 0,
            "PARAPROX_NO_FUSE={ignored:?} should be ignored (same idiom as PARAPROX_ENGINE)"
        );
    }

    // set_fusion overrides the environment default in either direction.
    std::env::set_var("PARAPROX_NO_FUSE", "1");
    let mut device = Device::new(DeviceProfile::gtx560().with_engine(ExecEngine::Bytecode));
    device.set_fusion(true);
    launch(&mut device);
    assert!(
        launch(&mut device).fusions_hit > 0,
        "set_fusion(true) overrides the environment"
    );

    // Read once: a device created with fusion on keeps it after the
    // variable changes.
    std::env::remove_var("PARAPROX_NO_FUSE");
    let mut device = Device::new(DeviceProfile::gtx560().with_engine(ExecEngine::Bytecode));
    std::env::set_var("PARAPROX_NO_FUSE", "1");
    launch(&mut device);
    assert!(
        launch(&mut device).fusions_hit > 0,
        "read at Device::new only"
    );
    std::env::remove_var("PARAPROX_NO_FUSE");
}

fn threads() {
    let serial = || Device::new(DeviceProfile::gtx560().with_parallelism(1));

    std::env::remove_var("PARAPROX_THREADS");
    let mut device = serial();
    assert_eq!(device.profile().parallelism, 1);
    assert_eq!(
        launch(&mut device).workers,
        1,
        "default: the profile's knob"
    );

    std::env::set_var("PARAPROX_THREADS", " 3 ");
    let mut device = serial();
    assert_eq!(device.profile().parallelism, 3);
    assert_eq!(launch(&mut device).workers, 3, "a positive count overrides");

    for ignored in ["", "0", "-2", "many"] {
        std::env::set_var("PARAPROX_THREADS", ignored);
        assert_eq!(
            launch(&mut serial()).workers,
            1,
            "PARAPROX_THREADS={ignored:?} should be ignored"
        );
    }

    // Profile parallelism 0 resolves to the available cores at creation.
    std::env::remove_var("PARAPROX_THREADS");
    let auto = Device::new(DeviceProfile::gtx560().with_parallelism(0));
    assert_eq!(
        auto.profile().parallelism,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        "parallelism 0 means every available core"
    );

    // Read once, in both directions.
    std::env::set_var("PARAPROX_THREADS", "3");
    let mut created_with = serial();
    std::env::remove_var("PARAPROX_THREADS");
    let mut created_without = serial();
    std::env::set_var("PARAPROX_THREADS", "3");
    assert_eq!(launch(&mut created_with).workers, 3);
    assert_eq!(launch(&mut created_without).workers, 1);
    std::env::remove_var("PARAPROX_THREADS");
}

fn engine() {
    // The tree-walker never compiles bytecode; the bytecode engine
    // compiles each kernel once.
    let engine_of = |profile_engine: ExecEngine| {
        let mut device = Device::new(DeviceProfile::gtx560().with_engine(profile_engine));
        let engine = device.profile().engine;
        launch(&mut device);
        let expected = u64::from(engine == ExecEngine::Bytecode);
        assert_eq!(device.compile_count(), expected, "engine {engine:?}");
        engine
    };

    std::env::remove_var("PARAPROX_ENGINE");
    assert_eq!(engine_of(ExecEngine::Bytecode), ExecEngine::Bytecode);
    assert_eq!(engine_of(ExecEngine::TreeWalk), ExecEngine::TreeWalk);

    for tree in ["tree", "treewalk", " TREE-WALK "] {
        std::env::set_var("PARAPROX_ENGINE", tree);
        assert_eq!(engine_of(ExecEngine::Bytecode), ExecEngine::TreeWalk);
    }
    std::env::set_var("PARAPROX_ENGINE", "Bytecode");
    assert_eq!(engine_of(ExecEngine::TreeWalk), ExecEngine::Bytecode);

    for ignored in ["", "gpu", "interp"] {
        std::env::set_var("PARAPROX_ENGINE", ignored);
        assert_eq!(
            engine_of(ExecEngine::TreeWalk),
            ExecEngine::TreeWalk,
            "PARAPROX_ENGINE={ignored:?} should be ignored"
        );
    }

    // Read once: the device keeps the engine it was created with.
    std::env::set_var("PARAPROX_ENGINE", "tree");
    let mut device = Device::new(DeviceProfile::gtx560().with_engine(ExecEngine::Bytecode));
    std::env::remove_var("PARAPROX_ENGINE");
    launch(&mut device);
    assert_eq!(device.compile_count(), 0, "read at Device::new only");
}

#[test]
fn env_knobs_are_read_once_at_device_creation() {
    no_fuse();
    threads();
    engine();
}
