//! Paging an image against its predecessor is an optimisation of
//! *finding* shared pages, never of what is shared: built once with a
//! predecessor and once from scratch, in twin stores fed the same
//! history, an image must come out with the same pages, keys and build
//! stats, and the two stores must agree on every counter —
//! after every build, every clone and every drop.
//!
//! The second half puts two threads on one store (campaign threads share
//! `FixdConfig.page_store`) and checks the totals that no interleaving
//! may change.

use std::sync::Barrier;

use proptest::prelude::*;

use fixd_store::{PageStore, PagedImage, StoreStats};

/// splitmix64: positions and fill bytes derived from the op's operands.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const PAGE_SIZES: [usize; 5] = [1, 7, 64, 256, 300];

/// One generation of an image history, kept in both twins.
struct Twin {
    delta: PagedImage,
    scratch: PagedImage,
}

fn assert_same(t: &Twin, bytes: &[u8], delta: &PageStore, scratch: &PageStore) {
    assert_eq!(t.delta.to_bytes(), bytes);
    assert_eq!(t.scratch.to_bytes(), bytes);
    assert!(t.delta.page_keys().eq(t.scratch.page_keys()), "page keys");
    assert_eq!(t.delta.build_stats(), t.scratch.build_stats());
    assert_eq!(t.delta.page_size(), t.scratch.page_size());
    assert_eq!(delta.stats(), scratch.stats(), "store counters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn predecessor_changes_no_page_and_no_counter(
        ops in proptest::collection::vec((0u8..9, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let delta = PageStore::new();
        let scratch = PageStore::new();
        // Predecessors "from a different store" are built here.
        let foreign = PageStore::new();
        let mut bytes: Vec<u8> = Vec::new();
        let mut page_size = 64usize;
        let mut history: Vec<Twin> = Vec::new();

        for (kind, a, b) in ops {
            let mut r = a ^ b.rotate_left(17);
            let before = bytes.clone();
            let mut foreign_prev = None;
            match kind {
                // Flip k bytes.
                0 if !bytes.is_empty() => {
                    for _ in 0..=(a % 8) {
                        let at = mix(&mut r) as usize % bytes.len();
                        bytes[at] ^= (mix(&mut r) as u8) | 1;
                    }
                }
                // Append (from empty, too).
                0 | 1 => {
                    let n = 1 + a as usize % 700;
                    // Low-entropy fill so constant runs collapse in-image.
                    bytes.extend((0..n).map(|_| (mix(&mut r) % 3) as u8));
                }
                // Truncate across a page boundary.
                2 => {
                    let cut = 1 + a as usize % (2 * page_size);
                    bytes.truncate(bytes.len().saturating_sub(cut));
                }
                // Shrink to empty.
                3 => bytes.clear(),
                // Change the page size between generations.
                4 => page_size = PAGE_SIZES[a as usize % PAGE_SIZES.len()],
                // Predecessor from a different store.
                5 => {
                    foreign_prev = Some(PagedImage::from_bytes_with(&foreign, &before, page_size));
                }
                // Identical rebuild.
                6 => {}
                // Drop a generation (what GC does): its pages may be
                // freed and have to come back as fresh inserts.
                7 if !history.is_empty() => {
                    history.swap_remove(a as usize % history.len());
                    prop_assert_eq!(delta.stats(), scratch.stats());
                }
                // Clone a generation (what a speculation branch does).
                8 if !history.is_empty() => {
                    let t = &history[a as usize % history.len()];
                    let twin = Twin { delta: t.delta.clone(), scratch: t.scratch.clone() };
                    prop_assert_eq!(delta.stats(), scratch.stats());
                    history.push(twin);
                }
                _ => {}
            }
            // Usually the latest generation, sometimes any live one:
            // whatever is passed must not show in the result.
            let prev = match (&foreign_prev, history.len()) {
                (Some(f), _) => Some(f),
                (None, 0) => None,
                (None, n) if b % 4 == 0 => Some(&history[(b >> 2) as usize % n].delta),
                (None, n) => Some(&history[n - 1].delta),
            };
            let twin = Twin {
                delta: PagedImage::from_bytes_after(&delta, &bytes, page_size, prev),
                scratch: PagedImage::from_bytes_with(&scratch, &bytes, page_size),
            };
            assert_same(&twin, &bytes, &delta, &scratch);
            history.push(twin);
        }

        // Drop everything in a random order, the twins in step.
        let mut r = history.len() as u64;
        while !history.is_empty() {
            history.swap_remove(mix(&mut r) as usize % history.len());
            prop_assert_eq!(delta.stats(), scratch.stats());
        }
        let end = delta.stats();
        prop_assert_eq!(end.live_bytes, 0);
        prop_assert_eq!(end.live_pages, 0);
        prop_assert_eq!(end.freed_bytes, scratch.stats().freed_bytes);
    }
}

/// The content both threads page: a `len`-byte image taking three byte
/// bumps per generation. Every seed starts from the same base, so the
/// threads contend for the same slots and then diverge page by page.
struct Script {
    r: u64,
    bytes: Vec<u8>,
}

impl Script {
    const PAGE: usize = 64;

    fn new(seed: u64, len: usize) -> Self {
        Self {
            r: seed,
            bytes: (0..len).map(|i| (i / 97) as u8).collect(),
        }
    }

    fn next_generation(&mut self) -> &[u8] {
        for _ in 0..3 {
            let at = mix(&mut self.r) as usize % self.bytes.len();
            self.bytes[at] = self.bytes[at].wrapping_add(1);
        }
        &self.bytes
    }
}

/// A thread's work: `gens` generations of a script, each paged against
/// its predecessor when `delta`; every third one is also cloned; at most
/// four images are held, the oldest dropped first. Returns how many
/// pages and bytes it paged.
fn churn(store: &PageStore, mut script: Script, gens: usize, delta: bool) -> (u64, u64) {
    let mut held: std::collections::VecDeque<PagedImage> = Default::default();
    let (mut pages, mut paged_bytes) = (0u64, 0u64);
    for g in 0..gens {
        let bytes = script.next_generation();
        let prev = if delta { held.back() } else { None };
        let img = PagedImage::from_bytes_after(store, bytes, Script::PAGE, prev);
        pages += img.page_count() as u64;
        paged_bytes += img.len() as u64;
        if g % 3 == 0 {
            held.push_back(img.clone());
        }
        held.push_back(img);
        while held.len() > 4 {
            held.pop_front();
        }
    }
    (pages, paged_bytes)
}

/// What no interleaving may change once every image is gone: each paged
/// chunk was a hit or a miss, its bytes were deduplicated or (inserted
/// and, by now) freed, and nothing is left.
fn conserved(s: StoreStats) -> (u64, u64, usize, usize) {
    (
        s.hits + s.misses,
        s.deduped_bytes + s.freed_bytes,
        s.live_pages,
        s.live_bytes,
    )
}

#[test]
fn two_threads_on_one_store_conserve_the_serial_totals() {
    const GENS: usize = 400;
    const LEN: usize = 4096 + 17;
    let seeds = [11u64, 12];

    // Serial reference, from scratch: the totals below do not depend on
    // order, nor on whether a predecessor was used to find the hits.
    let serial = PageStore::new();
    let mut expect_pages = 0;
    let mut expect_bytes = 0;
    for seed in seeds {
        let (p, b) = churn(&serial, Script::new(seed, LEN), GENS, false);
        expect_pages += p;
        expect_bytes += b;
    }
    assert_eq!(
        conserved(serial.stats()),
        (expect_pages, expect_bytes, 0, 0)
    );

    let shared = PageStore::new();
    let start = Barrier::new(seeds.len());
    std::thread::scope(|s| {
        for seed in seeds {
            let (shared, start) = (&shared, &start);
            s.spawn(move || {
                start.wait();
                churn(shared, Script::new(seed, LEN), GENS, true);
            });
        }
    });
    assert_eq!(conserved(shared.stats()), conserved(serial.stats()));
}

#[test]
fn two_threads_against_pinned_content_count_exactly() {
    // With every page the workers will ever produce held by the main
    // thread, each of their chunks is a hit whatever the interleaving:
    // `hits`, `misses` and `deduped_bytes` are exact, and the refcounts
    // fall back to the pins' own when the workers are done.
    const GENS: usize = 200;
    const LEN: usize = 2048;
    let seeds = [21u64, 22];

    let shared = PageStore::new();
    let pins: Vec<Vec<PagedImage>> = seeds
        .iter()
        .map(|&seed| {
            let mut script = Script::new(seed, LEN);
            (0..GENS)
                .map(|_| {
                    PagedImage::from_bytes_with(&shared, script.next_generation(), Script::PAGE)
                })
                .collect()
        })
        .collect();
    let pinned = shared.stats();
    let pin_refs: Vec<(u64, u64)> = pins
        .iter()
        .flatten()
        .flat_map(|img| img.page_keys())
        .map(|k| (k, shared.refs_of(k)))
        .collect();

    let start = Barrier::new(seeds.len());
    let paged: Vec<(u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let (shared, start) = (&shared, &start);
                s.spawn(move || {
                    start.wait();
                    churn(shared, Script::new(seed, LEN), GENS, true)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    let pages: u64 = paged.iter().map(|p| p.0).sum();
    let bytes: u64 = paged.iter().map(|p| p.1).sum();

    let after = shared.stats();
    assert_eq!(after.hits, pinned.hits + pages);
    assert_eq!(after.deduped_bytes, pinned.deduped_bytes + bytes);
    assert_eq!(after.misses, pinned.misses);
    assert_eq!(after.freed_bytes, 0);
    assert_eq!(after.live_bytes, pinned.live_bytes);
    for (key, refs) in pin_refs {
        assert_eq!(shared.refs_of(key), refs, "page {key:#x}");
    }
    drop(pins);
    let end = shared.stats();
    assert_eq!((end.live_pages, end.live_bytes), (0, 0));
    assert_eq!(end.freed_bytes, pinned.live_bytes as u64);
}
