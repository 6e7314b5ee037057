//! Sorted-walk helpers: the sanctioned way to iterate hash maps on
//! wire-send paths.
//!
//! Send order decides how the deterministic netsim RNG stream maps onto
//! datagrams, so any sweep that can emit frames must walk its maps in a
//! stable order — that is what makes the same seed reproduce
//! bit-identical `NetStats`/`ContainerStats` (asserted by the scenario
//! corpus). `marea-lint` rule **D1** forbids raw `HashMap`/`HashSet`
//! iteration in those paths; these helpers are the escape hatch the rule
//! recognizes (bodies of `fn sorted_*` are exempt), which keeps the
//! sorted collect the path of least resistance.

use std::collections::HashMap;

/// The keys of `map`, ascending. The returned `Vec` is owned, so the
/// caller may mutate the map while walking (the usual sweep shape:
/// re-look-up per key, skip keys that vanished mid-sweep).
pub fn sorted_keys<K: Ord + Clone, V>(map: &HashMap<K, V>) -> Vec<K> {
    let mut keys: Vec<K> = map.keys().cloned().collect();
    keys.sort();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_come_back_sorted() {
        let mut m = HashMap::new();
        for k in [9u32, 3, 7, 1, 8] {
            m.insert(k, ());
        }
        assert_eq!(sorted_keys(&m), vec![1, 3, 7, 8, 9]);
    }

    #[test]
    fn empty_map_yields_empty_vec() {
        let m: HashMap<u8, ()> = HashMap::new();
        assert!(sorted_keys(&m).is_empty());
    }
}
