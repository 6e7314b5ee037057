//! File transfer bookkeeping (paper §4.4), wrapping the protocol-level
//! MFTP state machines with container concerns: interests, announce
//! caching, transfer-to-resource mapping and the same-node bypass.

use std::collections::HashMap;

use marea_presentation::Name;
use marea_protocol::mftp::{FileReceiver, FileSender};
use marea_protocol::{Message, Micros, NodeId, ProtoDuration, TransferId};

/// Publisher-side transfer session state.
#[derive(Debug)]
pub(crate) struct OutgoingFile {
    /// The protocol state machine.
    pub sender: FileSender,
    /// Local service owning the resource.
    pub owner_seq: u32,
    /// Last completion-query emission.
    pub last_query_at: Option<Micros>,
    /// `DistributionComplete` already delivered for the current revision.
    pub complete_notified: bool,
}

/// Subscriber-side interest in a resource.
#[derive(Debug, Default)]
pub(crate) struct FileInterest {
    /// Local services interested.
    pub services: Vec<u32>,
    /// Active receiver (None until an announce is heard).
    pub receiver: Option<FileReceiver>,
    /// Node publishing the resource (source of the announce).
    pub publisher: Option<NodeId>,
    /// Highest revision fully received.
    pub completed_revision: Option<u32>,
}

/// All file-transfer state of one container.
#[derive(Debug, Default)]
pub(crate) struct FileEngine {
    /// Resources published from this node, by name.
    pub outgoing: HashMap<Name, OutgoingFile>,
    /// Resources this node wants, by name.
    pub interests: HashMap<Name, FileInterest>,
    /// Last announce heard per resource (supports subscribe-after-announce
    /// and late join).
    pub seen_announces: HashMap<Name, (NodeId, Message)>,
    /// Transfer-id → resource-name index for chunk routing.
    pub transfer_index: HashMap<TransferId, Name>,
    /// Next transfer session id.
    pub next_transfer: u64,
    /// Publications referencing undeclared resources (see
    /// [`TypeMismatchStats::files`](crate::stats::TypeMismatchStats)).
    pub type_mismatches: u64,
}

impl FileEngine {
    /// Allocates a transfer id.
    pub fn alloc_transfer(&mut self) -> TransferId {
        self.next_transfer += 1;
        TransferId(self.next_transfer)
    }

    /// When the file pump next has output: at once while any unfinished
    /// transfer still has chunks queued, else at the earliest completion
    /// query (`query_interval` after the transfer's last one). `None`
    /// while every outgoing transfer is complete.
    pub fn next_pump_due(&self, query_interval: ProtoDuration) -> Option<Micros> {
        self.outgoing
            .values()
            .filter(|out| !out.sender.is_complete())
            .map(|out| match out.last_query_at {
                Some(last) if !out.sender.has_pending_chunks() => last + query_interval,
                _ => Micros::ZERO,
            })
            .min()
    }

    /// Outgoing transfers with subscribers still to serve.
    pub fn sending_count(&self) -> usize {
        self.outgoing.values().filter(|out| !out.sender.is_complete()).count()
    }

    /// Interests with a receiver in progress.
    pub fn receiving_count(&self) -> usize {
        self.interests.values().filter(|i| i.receiver.is_some()).count()
    }

    /// Resource name for a transfer id, if known.
    pub fn resource_of(&self, transfer: TransferId) -> Option<&Name> {
        self.transfer_index.get(&transfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_ids_are_unique_and_indexed() {
        let mut e = FileEngine::default();
        let a = e.alloc_transfer();
        let b = e.alloc_transfer();
        assert_ne!(a, b);
        let name = Name::new("img").unwrap();
        e.transfer_index.insert(a, name.clone());
        assert_eq!(e.resource_of(a), Some(&name));
        assert_eq!(e.resource_of(b), None);
    }
}
