//! Steady-state block execution must not allocate per warp or per block.
//!
//! A counting global allocator measures one launch after a warm-up launch
//! of the same shape. The kernel exercises every per-warp charging path:
//! a bank-conflicting shared store and load, a global gather, a constant
//! load and a global store. Growing the warp count (more blocks, or more
//! lanes per block) must not grow the allocation count beyond a small
//! allowance per extra block, on both device profiles, serial and
//! parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use paraprox_ir::{Expr, KernelBuilder, KernelId, MemSpace, Program, Ty};
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2};

/// Counts every `alloc`, `alloc_zeroed` and `realloc` across all threads.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Elements in each buffer; covers the largest grid x block tested.
const N: usize = 8192;
/// Words in the shared array.
const SHARED: usize = 1024;

fn mixed_kernel(program: &mut Program) -> KernelId {
    let mut kb = KernelBuilder::new("mixed");
    let table = kb.buffer("table", Ty::F32, MemSpace::Constant);
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let shared = kb.shared_array("s", Ty::F32, SHARED);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    // Stride 32 words: every lane of a warp hits bank 0 at a distinct word.
    let slot = kb.let_(
        "slot",
        (tid.clone() * Expr::i32(32)).rem(Expr::i32(SHARED as i32)),
    );
    kb.store(shared, slot.clone(), Expr::f32(1.0));
    kb.sync();
    let s = kb.let_("s", kb.load(shared, slot));
    // Gather: neighbouring lanes land on different cache lines.
    let far = kb.let_(
        "far",
        (gid.clone() * Expr::i32(33)).rem(Expr::i32(N as i32)),
    );
    let g = kb.let_("g", kb.load(input, far));
    let c = kb.let_("c", kb.load(table, gid.clone().rem(Expr::i32(64))));
    kb.store(output, gid, s + g + c);
    program.add_kernel(kb.finish())
}

/// Shapes measured, as `(grid, block)`: a grid of 2 and of 32 blocks at
/// 64 lanes, then blocks of 32 and of 256 lanes at a grid of 2.
const SHAPES: [(usize, usize); 4] = [(2, 64), (32, 64), (2, 32), (2, 256)];

/// Allocations made by one launch of each of [`SHAPES`], measured on one
/// device after two warm-up launches of a shape covering all of them (the
/// first profiles the kernel for superinstruction fusion, the second runs
/// the fused form, and with 32 blocks every worker runs some).
fn launch_allocations(profile: &DeviceProfile, workers: usize) -> Vec<u64> {
    let mut program = Program::new();
    let kernel = mixed_kernel(&mut program);
    let mut device = Device::new(profile.clone().with_parallelism(workers));
    let table = device.alloc_f32(MemSpace::Constant, &[0.5; 64]);
    let input = device.alloc_f32(MemSpace::Global, &vec![1.0; N]);
    let output = device.alloc_f32(MemSpace::Global, &vec![0.0; N]);
    let args = [
        ArgValue::Buffer(table),
        ArgValue::Buffer(input),
        ArgValue::Buffer(output),
    ];
    for _ in 0..2 {
        device
            .launch(&program, kernel, Dim2::linear(32), Dim2::linear(256), &args)
            .expect("warm-up launch");
    }
    SHAPES
        .iter()
        .map(|&(grid, block)| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let stats = device
                .launch(
                    &program,
                    kernel,
                    Dim2::linear(grid),
                    Dim2::linear(block),
                    &args,
                )
                .expect("measured launch");
            let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert!(
                stats.bank_conflict_extra > 0,
                "the shared accesses conflict"
            );
            made
        })
        .collect()
}

#[test]
fn launch_allocations_do_not_grow_with_warp_count() {
    // At most this many allocations per extra block.
    const PER_EXTRA_BLOCK: u64 = 2;
    for profile in [DeviceProfile::gtx560(), DeviceProfile::core_i7_965()] {
        for workers in [1, 2] {
            let made = launch_allocations(&profile, workers);
            let name = format!("{} x{workers}", profile.name);
            assert!(
                made[1] <= made[0] + PER_EXTRA_BLOCK * 30,
                "{name}: grid 2 made {} allocations, grid 32 made {}",
                made[0],
                made[1]
            );
            assert!(
                made[3] <= made[2],
                "{name}: 32 lanes made {} allocations, 256 lanes made {}",
                made[2],
                made[3]
            );
        }
    }
}
