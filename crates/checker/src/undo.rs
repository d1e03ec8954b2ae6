//! The apply/undo stack behind the incremental explorer.
//!
//! The pre-change DFS cloned the whole `RpvpState` (plus the `decided`
//! vector) at every branch alternative. The incremental explorer instead
//! applies each step in place and records just enough to revert it: the
//! node's previous best-route handle, its previous `decided` bit, and
//! whichever enabled-set cache entries the step displaced. With the state
//! handle-native, a frame is four words and `Copy` — pushing one is a
//! store, not a route move. Undoing a step replays that record; unwinding a
//! DFS frame pops records down to a watermark.
//!
//! The stack is two flat vectors (fixed-size frames plus a shared
//! variable-length spill for displaced enabled entries). It is one of the
//! buffers a worker's [`SearchScratch`](crate::SearchScratch) carries from
//! run to run, cleared by [`SearchScratch::prepare`](crate::SearchScratch::prepare)
//! with both allocations kept.

use plankton_net::topology::NodeId;
use plankton_protocols::rpvp::EnabledChoice;
use plankton_protocols::RouteHandle;

/// Everything needed to revert one applied RPVP step.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UndoFrame {
    /// The node that stepped.
    pub node: NodeId,
    /// The handle of its best route before the step.
    pub prev_best: RouteHandle,
    /// Its `decided` bit before the step.
    pub prev_decided: bool,
    /// Watermark into the displaced-enabled-entries spill: entries above it
    /// belong to this frame.
    pub enabled_mark: usize,
}

/// A reusable stack of [`UndoFrame`]s plus the displaced enabled-set
/// entries of every live frame.
#[derive(Default)]
pub struct UndoStack {
    frames: Vec<UndoFrame>,
    pub(crate) enabled_prev: Vec<(NodeId, Option<EnabledChoice>)>,
}

impl UndoStack {
    /// Current number of live frames (a watermark for
    /// [`UndoStack::pop_frame`]-driven unwinding).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Watermark into the displaced-enabled-entries spill, taken just
    /// before a step's enabled-set refresh.
    pub(crate) fn enabled_mark(&self) -> usize {
        self.enabled_prev.len()
    }

    pub(crate) fn push_frame(&mut self, frame: UndoFrame) {
        self.frames.push(frame);
    }

    pub(crate) fn pop_frame(&mut self) -> UndoFrame {
        self.frames.pop().expect("undo stack underflow")
    }

    /// Reset to empty, keeping both allocations for the next run.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.enabled_prev.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_and_marks_are_lifo() {
        let mut s = UndoStack::default();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.enabled_mark(), 0);
        s.enabled_prev.push((NodeId(7), None));
        s.push_frame(UndoFrame {
            node: NodeId(1),
            prev_best: RouteHandle::NONE,
            prev_decided: false,
            enabled_mark: 0,
        });
        assert_eq!(s.depth(), 1);
        assert_eq!(s.enabled_mark(), 1);
        let f = s.pop_frame();
        assert_eq!(f.node, NodeId(1));
        s.clear();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.enabled_mark(), 0);
    }
}
