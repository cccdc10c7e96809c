//! Property test for the deterministic fan-out primitive: whatever the
//! thread count, the dispatcher must return byte-identical results to a
//! serial map and stream them in input order.

use proptest::prelude::*;

use sm_core::parallel::par_map_stream;

/// The mapped value carries the input and a derived payload so any
/// reordering or cross-worker mixup shows up as a byte-level mismatch.
fn cell(x: &u64) -> Vec<u8> {
    let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    h.to_le_bytes()
        .iter()
        .chain(x.to_le_bytes().iter())
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dispatch ≡ serial map at 1, 3 and 8 threads, and every result is
    /// streamed exactly once, in input order, carrying its own value.
    #[test]
    fn dispatch_matches_a_serial_map_in_stream_order(
        items in prop::collection::vec(0u64..1000, 0..40),
    ) {
        let serial: Vec<Vec<u8>> = items.iter().map(cell).collect();
        for threads in [1usize, 3, 8] {
            let mut streamed = Vec::new();
            let out = par_map_stream(
                &items,
                threads,
                cell,
                |i, u| streamed.push((i, u.clone())),
                None,
            );
            prop_assert_eq!(out.as_ref(), Ok(&serial), "diverged at {} threads", threads);
            let expect: Vec<(usize, Vec<u8>)> = serial.iter().cloned().enumerate().collect();
            prop_assert_eq!(&streamed, &expect, "stream order at {} threads", threads);
        }
    }
}
