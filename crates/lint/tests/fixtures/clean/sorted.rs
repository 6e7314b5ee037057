// marea-lint: scope(d1)
//! Clean fixture: hash iteration routed through a sorted-walk helper.

use std::collections::HashMap;

fn sorted_ids(map: &HashMap<u32, u32>) -> Vec<u32> {
    let mut ids: Vec<u32> = map.keys().copied().collect();
    ids.sort_unstable();
    ids
}

fn send_all(map: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for id in sorted_ids(map) {
        out.push(map[&id]);
    }
    out
}

// The scratch-buffer shape a hot sweep over a hash map can use:
// the hash walk lives in a `sorted_*` helper, the caller drains an
// owned, already-sorted scratch Vec — no raw hash iteration on the
// send path, no per-tick allocation.
fn sorted_ids_into(map: &HashMap<u32, u32>, scratch: &mut Vec<u32>) {
    scratch.clear();
    scratch.extend(map.keys().copied());
    scratch.sort_unstable();
}

fn send_all_with_scratch(map: &HashMap<u32, u32>, scratch: &mut Vec<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    sorted_ids_into(map, scratch);
    for id in scratch.drain(..) {
        out.push(map[&id]);
    }
    out
}
