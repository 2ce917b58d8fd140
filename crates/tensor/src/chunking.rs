//! Shared sequential-vs-parallel dispatch for kernels that split their
//! output into fixed-size disjoint chunks (one batch item, plane, or
//! filter per chunk).
//!
//! Centralizing the dispatch keeps every kernel's policy identical:
//! degenerate work (empty output or zero-sized chunks, legal now that
//! shapes may have zero extents) is a no-op, single-chunk or
//! not-worthwhile work runs inline, and everything else fans out across
//! rayon workers. Chunk boundaries never depend on the thread count, so
//! either path produces bitwise-identical results.
//!
//! The module is public: the `mn-nn` training layer drives its own batch
//! loops (batch-norm backward, the fused SGD step) through the same
//! dispatcher, so every parallel loop in the workspace shares one policy.

use rayon::prelude::*;

/// Runs `f(chunk_index, chunk)` over fixed-size chunks of `data`.
///
/// `parallel_worthwhile` is the caller's cost estimate (e.g. "enough
/// multiply-adds to amortize a worker spawn"); the helper additionally
/// requires more than one chunk and more than one available thread.
pub fn for_each_chunk(
    data: &mut [f32],
    chunk: usize,
    parallel_worthwhile: bool,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if data.is_empty() || chunk == 0 {
        return;
    }
    let items = data.len().div_ceil(chunk);
    if items <= 1 || !parallel_worthwhile || rayon::current_num_threads() <= 1 {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
    } else {
        data.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    }
}

/// [`for_each_chunk`] over an output and a companion buffer of any element
/// type, chunked `chunk` and `aux_chunk` elements at a time: chunk `i` of
/// `data` is paired with chunk `i` of `aux`. Max pooling pairs each item's
/// output with its argmax indices (the same chunk size twice); the fused
/// convolution pairs each batch range with its private scratch piece.
pub fn for_each_chunk_zip<T: Send>(
    data: &mut [f32],
    aux: &mut [T],
    chunk: usize,
    aux_chunk: usize,
    parallel_worthwhile: bool,
    f: impl Fn(usize, &mut [f32], &mut [T]) + Sync,
) {
    if data.is_empty() || chunk == 0 {
        return;
    }
    let items = data.len().div_ceil(chunk);
    if items <= 1 || !parallel_worthwhile || rayon::current_num_threads() <= 1 {
        for (i, (c, a)) in data
            .chunks_mut(chunk)
            .zip(aux.chunks_mut(aux_chunk))
            .enumerate()
        {
            f(i, c, a);
        }
    } else {
        data.par_chunks_mut(chunk)
            .zip(aux.par_chunks_mut(aux_chunk))
            .enumerate()
            .for_each(|(i, (c, a))| f(i, c, a));
    }
}

/// [`for_each_chunk`] over three equally-chunked `f32` buffers — the fused
/// SGD step's split (parameter values, velocity, gradients). All three
/// must have equal lengths so the chunk triples stay aligned.
///
/// # Panics
///
/// Panics if the buffer lengths differ.
pub fn for_each_chunk3(
    a: &mut [f32],
    b: &mut [f32],
    c: &mut [f32],
    chunk: usize,
    parallel_worthwhile: bool,
    f: impl Fn(usize, &mut [f32], &mut [f32], &mut [f32]) + Sync,
) {
    assert_eq!(a.len(), b.len(), "chunk3 length mismatch");
    assert_eq!(a.len(), c.len(), "chunk3 length mismatch");
    if a.is_empty() || chunk == 0 {
        return;
    }
    let items = a.len().div_ceil(chunk);
    if items <= 1 || !parallel_worthwhile || rayon::current_num_threads() <= 1 {
        for (i, ((ca, cb), cc)) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
            .enumerate()
        {
            f(i, ca, cb, cc);
        }
    } else {
        a.par_chunks_mut(chunk)
            .zip(b.par_chunks_mut(chunk))
            .zip(c.par_chunks_mut(chunk))
            .enumerate()
            .for_each(|(i, ((ca, cb), cc))| f(i, ca, cb, cc));
    }
}

/// Splits `0..total` into at most `shards` contiguous, non-empty,
/// near-equal ranges (the first `total % shards` ranges are one longer).
///
/// This is the batch-sharding rule of the ensemble engine's data-parallel
/// execution plan. Boundaries depend only on `(total, shards)` — never on
/// the thread count or schedule — and concatenating the ranges in order
/// reproduces `0..total` exactly, so any per-item-deterministic kernel
/// produces bitwise-identical results under any sharding.
///
/// Degenerate inputs shrink gracefully: more shards than items yields one
/// range per item, and `total == 0` or `shards == 0` yields no ranges.
pub fn shard_ranges(total: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if total == 0 || shards == 0 {
        return Vec::new();
    }
    let shards = shards.min(total);
    let base = total / shards;
    let extra = total % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_data_and_zero_chunk_are_no_ops() {
        for_each_chunk(&mut [], 4, true, |_, _| panic!("must not run"));
        let mut data = [1.0f32; 4];
        for_each_chunk(&mut data, 0, true, |_, _| panic!("must not run"));
        for_each_chunk_zip(&mut [], &mut [0usize; 0], 4, 4, true, |_, _, _| {
            panic!("must not run")
        });
        for_each_chunk3(&mut [], &mut [], &mut [], 4, true, |_, _, _, _| {
            panic!("must not run")
        });
    }

    #[test]
    fn covers_all_chunks_in_order() {
        let mut data = [0.0f32; 10];
        for_each_chunk(&mut data, 4, true, |i, c| {
            c.iter_mut().for_each(|v| *v = i as f32)
        });
        assert_eq!(data, [0., 0., 0., 0., 1., 1., 1., 1., 2., 2.]);
    }

    #[test]
    fn zip_pairs_aux_chunks() {
        let mut data = [0.0f32; 6];
        let mut aux = [0usize; 6];
        for_each_chunk_zip(&mut data, &mut aux, 3, 3, false, |i, c, a| {
            c.iter_mut().for_each(|v| *v = i as f32);
            a.iter_mut().for_each(|v| *v = 10 * i);
        });
        assert_eq!(data, [0., 0., 0., 1., 1., 1.]);
        assert_eq!(aux, [0, 0, 0, 10, 10, 10]);
        // Differently sized companions: chunk i still meets aux chunk i,
        // on the inline and the fanned-out path alike.
        for parallel in [false, true] {
            let mut data = [0.0f32; 6];
            let mut scratch = [0.0f32; 4];
            for_each_chunk_zip(&mut data, &mut scratch, 3, 2, parallel, |i, c, a| {
                assert_eq!((c.len(), a.len()), (3, 2));
                c.iter_mut().for_each(|v| *v = i as f32);
                a.iter_mut().for_each(|v| *v = 7.0 + i as f32);
            });
            assert_eq!(data, [0., 0., 0., 1., 1., 1.]);
            assert_eq!(scratch, [7., 7., 8., 8.]);
        }
    }

    #[test]
    fn chunk3_aligns_all_three_buffers() {
        let mut a = [0.0f32; 7];
        let mut b = [0.0f32; 7];
        let mut c = [0.0f32; 7];
        for_each_chunk3(&mut a, &mut b, &mut c, 3, true, |i, ca, cb, cc| {
            ca.iter_mut().for_each(|v| *v = i as f32);
            cb.iter_mut().for_each(|v| *v = 10.0 * i as f32);
            cc.iter_mut().for_each(|v| *v = 100.0 * i as f32);
        });
        assert_eq!(a, [0., 0., 0., 1., 1., 1., 2.]);
        assert_eq!(b, [0., 0., 0., 10., 10., 10., 20.]);
        assert_eq!(c, [0., 0., 0., 100., 100., 100., 200.]);
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for total in [0usize, 1, 2, 7, 64, 1000] {
            for shards in [0usize, 1, 2, 3, 8, 2000] {
                let ranges = shard_ranges(total, shards);
                if total == 0 || shards == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), shards.min(total));
                // Contiguous, non-empty, and covering 0..total in order.
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor);
                    assert!(!r.is_empty());
                    cursor = r.end;
                }
                assert_eq!(cursor, total);
                // Balanced: lengths differ by at most one.
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced shards {lens:?}");
            }
        }
    }

    #[test]
    fn shard_ranges_known_split() {
        assert_eq!(shard_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(shard_ranges(2, 5), vec![0..1, 1..2]);
    }

    #[test]
    #[should_panic(expected = "chunk3 length mismatch")]
    fn chunk3_rejects_mismatched_lengths() {
        for_each_chunk3(
            &mut [0.0; 2],
            &mut [0.0; 3],
            &mut [0.0; 2],
            1,
            false,
            |_, _, _, _| {},
        );
    }
}
