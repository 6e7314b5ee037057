//! The counting allocator, alone in its own test process: no other test
//! thread allocates while it counts.

use marea_benchmark::alloc;

#[test]
fn counts_a_known_vec_growth() {
    let calls = alloc::calls();
    let live = alloc::live_bytes();
    alloc::reset_peak();

    let mut v: Vec<u64> = Vec::with_capacity(4); // alloc: 32 bytes
    v.extend([1, 2, 3, 4]);
    assert_eq!(alloc::calls() - calls, 1);
    assert_eq!(alloc::live_bytes() - live, 32);

    v.reserve_exact(12); // realloc to 16 elements: 128 bytes
    assert_eq!(v.capacity(), 16);
    assert_eq!(alloc::calls() - calls, 2, "a realloc is one more call");
    assert_eq!(alloc::live_bytes() - live, 128);
    assert!(alloc::peak_bytes() >= live + 128);

    drop(v);
    assert_eq!(alloc::calls() - calls, 2, "freeing is not an allocator call");
    assert_eq!(alloc::live_bytes(), live);
    assert!(alloc::peak_bytes() >= live + 128, "the high-water mark outlives the free");
    alloc::reset_peak();
    assert_eq!(alloc::peak_bytes(), alloc::live_bytes());
}
