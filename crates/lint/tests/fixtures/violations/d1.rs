// marea-lint: scope(d1)
//! D1 fixture: raw hash-map iteration on a wire-send path.

use std::collections::{HashMap, HashSet};

struct Router {
    routes: HashMap<u32, String>,
    peers: HashSet<u32>,
}

impl Router {
    fn flush(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for id in self.routes.keys() {
            out.push(*id);
        }
        for peer in &self.peers {
            out.push(*peer);
        }
        out.extend(self.routes.values().map(|_| 0));
        out
    }
}

// A name is not a proof: `sorted_` in front of a raw walk sorts nothing.
fn sorted_ids(map: &HashMap<u32, u32>) -> Vec<u32> {
    map.keys().copied().collect()
}
