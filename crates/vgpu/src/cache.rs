//! A set-associative LRU cache model used for the L1 and constant caches.
//!
//! Addresses are byte addresses in the device's flat address space; the
//! cache tracks lines only (no data — the backing store is always the
//! buffer contents, which keeps the model trivially coherent).

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.bytes / self.line / self.ways).max(1)
    }
}

/// Cache configuration for a device: L1 (global memory) and constant cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Geometry of the L1 data cache in front of global memory.
    pub l1: CacheGeometry,
    /// Geometry of the constant cache.
    pub constant: CacheGeometry,
}

impl CacheConfig {
    /// Fermi-style 16 KB L1 + 8 KB constant cache (paper's default split:
    /// 48 KB shared / 16 KB L1).
    pub fn gpu_l1_16k() -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry {
                bytes: 16 * 1024,
                line: 128,
                ways: 4,
            },
            constant: CacheGeometry {
                bytes: 8 * 1024,
                line: 64,
                ways: 4,
            },
        }
    }

    /// Fermi-style 48 KB L1 (the paper's Fig. 16 experiment flips the
    /// shared/L1 split to 32 KB L1; this helper takes the size explicitly).
    pub fn gpu_l1_bytes(bytes: usize) -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry {
                bytes,
                line: 128,
                ways: 4,
            },
            constant: CacheGeometry {
                bytes: 8 * 1024,
                line: 64,
                ways: 4,
            },
        }
    }

    /// CPU-style 256 KB private cache with 64-byte lines.
    pub fn cpu_l1_256k() -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry {
                bytes: 256 * 1024,
                line: 64,
                ways: 8,
            },
            constant: CacheGeometry {
                bytes: 32 * 1024,
                line: 64,
                ways: 8,
            },
        }
    }
}

/// Marks an empty way. No line tag reaches it: a tag is a device byte
/// address divided by the line size, and device addresses stay far below
/// `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// A set-associative LRU cache over byte addresses (tags only).
///
/// The tags live in one flat, set-major array: set `s` owns the `ways`
/// slots starting at `s * ways`, in LRU order (front = MRU), with its
/// empty slots at the back. A hit or a fill rotates a prefix of the set in
/// place, so an access never allocates, a clone is one allocation, and
/// [`Clone::clone_from`] into a cache of the same geometry is a copy.
#[derive(Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `geometry.sets() * geometry.ways` line tags, set-major.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Clone for Cache {
    fn clone(&self) -> Cache {
        Cache {
            geometry: self.geometry,
            tags: self.tags.clone(),
            hits: self.hits,
            misses: self.misses,
        }
    }

    fn clone_from(&mut self, source: &Cache) {
        self.geometry = source.geometry;
        self.tags.clone_from(&source.tags);
        self.hits = source.hits;
        self.misses = source.misses;
    }
}

impl Cache {
    /// Create an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Cache {
        Cache {
            geometry,
            tags: vec![EMPTY; geometry.sets() * geometry.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Line size in bytes.
    pub fn line(&self) -> usize {
        self.geometry.line
    }

    /// Access the line containing byte `addr`; returns `true` on a hit.
    /// On a miss the line is installed, evicting the set's LRU line if the
    /// set is full.
    pub fn access(&mut self, addr: u64) -> bool {
        let ways = self.geometry.ways;
        let line_tag = addr / self.geometry.line as u64;
        debug_assert_ne!(line_tag, EMPTY);
        let set_idx = (line_tag % (self.tags.len() / ways) as u64) as usize;
        let set = &mut self.tags[set_idx * ways..(set_idx + 1) * ways];
        if let Some(pos) = set.iter().position(|&t| t == line_tag) {
            set[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // The last slot (the LRU line, or an empty way) rotates to the
            // front and is overwritten.
            set.rotate_right(1);
            set[0] = line_tag;
            self.misses += 1;
            false
        }
    }

    /// Hits since creation or the last [`Cache::reset_counters`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since creation or the last [`Cache::reset_counters`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clear the hit/miss counters but keep cache contents.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Overwrite the hit/miss counters. Used by the block-parallel executor
    /// to merge per-block cache snapshots back into the device cache: the
    /// device keeps the last block's contents, with counters advanced by
    /// the deterministic sum of every block's deltas.
    pub(crate) fn set_counters(&mut self, hits: u64, misses: u64) {
        self.hits = hits;
        self.misses = misses;
    }

    /// Drop all resident lines and reset counters.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 64 B in 2 sets x 2 ways.
        Cache::new(CacheGeometry {
            bytes: 256,
            line: 64,
            ways: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (tag % 2 == 0).
        assert!(!c.access(0)); // install tag 0
        assert!(!c.access(128)); // install tag 2
        assert!(!c.access(256)); // install tag 4, evicts tag 0 (LRU)
        assert!(!c.access(0)); // tag 0 was evicted
        assert!(c.access(256)); // tag 4 still resident
    }

    #[test]
    fn lru_order_updates_on_hit() {
        let mut c = tiny();
        c.access(0); // tag 0
        c.access(128); // tag 2
        c.access(0); // touch tag 0 -> MRU
        c.access(256); // tag 4 evicts tag 2
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn flush_clears_contents_and_counters() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn geometry_sets_never_zero() {
        let g = CacheGeometry {
            bytes: 64,
            line: 128,
            ways: 4,
        };
        assert_eq!(g.sets(), 1);
    }

    /// The nested-vector LRU model the flat cache replaced: one vector of
    /// tags per set, front = MRU.
    struct Reference {
        geometry: CacheGeometry,
        sets: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn new(geometry: CacheGeometry) -> Reference {
            Reference {
                geometry,
                sets: vec![Vec::new(); geometry.sets()],
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line_tag = addr / self.geometry.line as u64;
            let set_idx = (line_tag % self.sets.len() as u64) as usize;
            let set = &mut self.sets[set_idx];
            if let Some(pos) = set.iter().position(|&t| t == line_tag) {
                set.remove(pos);
                set.insert(0, line_tag);
                self.hits += 1;
                true
            } else {
                set.insert(0, line_tag);
                if set.len() > self.geometry.ways {
                    set.pop();
                }
                self.misses += 1;
                false
            }
        }

        fn flush(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
            self.hits = 0;
            self.misses = 0;
        }
    }

    /// A seeded address stream over four times the cache's capacity: half
    /// the accesses walk forward from the previous address (hits within a
    /// line, then fills), half jump anywhere (conflicts and evictions).
    fn stream(seed: u64, geometry: CacheGeometry, len: usize) -> Vec<u64> {
        let mut rng = paraprox_prng::Rng::seed_from_u64(seed);
        let span = 4 * geometry.bytes as u64;
        let mut addr = 0u64;
        (0..len)
            .map(|_| {
                addr = if rng.random_bool(0.5) {
                    (addr + rng.next_below(2 * geometry.line as u64)) % span
                } else {
                    rng.next_below(span)
                };
                addr
            })
            .collect()
    }

    fn differential_geometries() -> [CacheGeometry; 5] {
        let one_set = CacheGeometry {
            bytes: 256,
            line: 64,
            ways: 4,
        };
        let one_way = CacheGeometry {
            bytes: 1024,
            line: 64,
            ways: 1,
        };
        assert_eq!(one_set.sets(), 1);
        [
            CacheConfig::gpu_l1_16k().l1,
            CacheConfig::gpu_l1_16k().constant,
            CacheConfig::cpu_l1_256k().l1,
            one_set,
            one_way,
        ]
    }

    #[test]
    fn flat_cache_matches_nested_vector_reference() {
        for geometry in differential_geometries() {
            for seed in 1..=4 {
                let mut flat = Cache::new(geometry);
                let mut reference = Reference::new(geometry);
                for (round, chunk) in stream(seed, geometry, 20_000).chunks(5_000).enumerate() {
                    for (i, &addr) in chunk.iter().enumerate() {
                        assert_eq!(
                            flat.access(addr),
                            reference.access(addr),
                            "{geometry:?} seed {seed} round {round} access {i} addr {addr}"
                        );
                    }
                    assert_eq!(
                        (flat.hits(), flat.misses()),
                        (reference.hits, reference.misses)
                    );
                    // Flush between two rounds: contents and counters clear.
                    if round == 1 {
                        flat.flush();
                        reference.flush();
                        assert_eq!((flat.hits(), flat.misses()), (0, 0));
                    }
                }
                assert!(reference.hits > 0 && reference.misses > 0);
            }
        }
    }

    #[test]
    fn clone_and_clone_from_keep_contents_and_counters() {
        let [gpu, _, cpu, ..] = differential_geometries();
        let warm = stream(7, gpu, 3_000);
        let probe = stream(8, gpu, 3_000);
        let mut original = Cache::new(gpu);
        for &addr in &warm {
            original.access(addr);
        }
        let mut cloned = original.clone();
        // `clone_from` into a cache of another geometry with other
        // contents must end up equal too.
        let mut refilled = Cache::new(cpu);
        for &addr in &probe {
            refilled.access(addr);
        }
        refilled.clone_from(&original);
        assert_eq!(refilled.geometry(), gpu);
        for copy in [&mut cloned, &mut refilled] {
            assert_eq!(
                (copy.hits(), copy.misses()),
                (original.hits(), original.misses())
            );
        }
        for &addr in &probe {
            let hit = original.access(addr);
            assert_eq!(cloned.access(addr), hit);
            assert_eq!(refilled.access(addr), hit);
        }
        for copy in [&cloned, &refilled] {
            assert_eq!(
                (copy.hits(), copy.misses()),
                (original.hits(), original.misses())
            );
        }
    }

    #[test]
    fn stock_configs_are_sane() {
        let g = CacheConfig::gpu_l1_16k();
        assert_eq!(g.l1.bytes, 16 * 1024);
        assert!(g.l1.sets() > 0);
        let c = CacheConfig::cpu_l1_256k();
        assert!(c.l1.bytes > g.l1.bytes);
    }
}
