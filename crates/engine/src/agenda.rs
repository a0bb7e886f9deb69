//! The round agenda: which nodes a runner polls in which round.
//!
//! The round loop (`rounds.rs`) is event-driven. A node's
//! [`broadcast`](crate::BcongestAlgorithm::broadcast) is evaluated in a round
//! only if the node is *scheduled* for it, and a node is rescheduled only when
//! something happened to it — it was polled, it received, or a fault round
//! fired — by asking its `next_activity` once. Everything else sleeps, so a
//! round costs `O(polled + received + n/64)` instead of `Θ(n)`.
//!
//! [`Agenda`] keeps the schedule: a `hot` [`NodeSet`] of nodes to poll next
//! round, and a min-heap of `(round, node)` timers for nodes that named a
//! later round. Timers are never removed when a node changes its mind; the
//! per-node `due` table makes them exact instead — a heap entry is live iff
//! `due[node]` still equals its round, and stale entries are discarded when
//! they surface.
//!
//! The poll list is **ascending**, so the sender list — hence every inbox,
//! every [`Metrics`](crate::Metrics) field and every trace byte — is what a
//! scan over all nodes produces. The reference-loop properties in
//! `crates/engine/tests/properties.rs` pin that equality, and debug builds
//! assert every round that no unscheduled live node would have sent.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A set of node indices in `0..n`, one bit each in `u64` words.
#[derive(Debug)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
    n: usize,
    /// Whether any bit is set, so an empty set is known without a scan.
    any: bool,
}

impl NodeSet {
    /// The empty set over `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            n,
            any: false,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        !self.any
    }

    /// Adds `i` (idempotent).
    pub(crate) fn insert(&mut self, i: usize) {
        debug_assert!(i < self.n, "node {i} outside 0..{}", self.n);
        self.words[i / 64] |= 1u64 << (i % 64);
        self.any = true;
    }

    /// Adds every node of `0..n`.
    pub(crate) fn insert_all(&mut self) {
        self.words.fill(u64::MAX);
        let tail = self.n % 64;
        if tail > 0 {
            *self.words.last_mut().expect("n > 0 has a word") = (1u64 << tail) - 1;
        }
        self.any = self.n > 0;
    }

    /// Appends the members to `out` in ascending order and empties the set.
    /// An empty set costs nothing; otherwise zero words are skipped a word at
    /// a time.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<u32>) {
        if !self.any {
            return;
        }
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        self.any = false;
    }
}

/// `due` entry of a node with no pending timer.
const ASLEEP: u32 = u32::MAX;

/// The last round a timer can name. Later answers are clamped to it, which is
/// an *early* wake-up — always legal, it only costs a poll — and keeps `due`
/// at four bytes a node.
const LAST_TIMER: usize = (ASLEEP - 1) as usize;

/// The schedule of one run. Per round: [`wake_all`](Self::wake_all) if fault
/// events fired, [`begin`](Self::begin), poll [`poll`](Self::poll), deliver
/// and receive, [`settle`](Self::settle), then [`next_round`](Self::next_round)
/// if the round was idle.
#[derive(Debug)]
pub(crate) struct Agenda {
    /// Nodes to poll in the next round.
    hot: NodeSet,
    /// `(round, node)` timers, earliest first; live iff `due[node] == round`.
    timers: BinaryHeap<Reverse<(u32, u32)>>,
    /// The round of each node's live timer, or [`ASLEEP`].
    due: Vec<u32>,
    /// The current round's poll list, ascending.
    poll: Vec<u32>,
}

impl Agenda {
    /// An agenda over `0..n` with every node hot: round 0 polls everyone.
    pub(crate) fn new(n: usize) -> Self {
        let mut hot = NodeSet::new(n);
        hot.insert_all();
        Self {
            hot,
            timers: BinaryHeap::new(),
            due: vec![ASLEEP; n],
            poll: Vec::new(),
        }
    }

    /// Schedules every node for the next [`begin`](Self::begin): a fault round
    /// may have changed any state behind the agenda's back.
    pub(crate) fn wake_all(&mut self) {
        self.hot.insert_all();
    }

    /// Starts `round`: timers due by now join the hot set, which becomes the
    /// ascending [`poll`](Self::poll) list.
    pub(crate) fn begin(&mut self, round: usize) {
        while let Some(&Reverse((t, v))) = self.timers.peek() {
            if t as usize > round {
                break;
            }
            self.timers.pop();
            if self.due[v as usize] == t {
                self.due[v as usize] = ASLEEP;
                self.hot.insert(v as usize);
            }
        }
        self.poll.clear();
        self.hot.drain_into(&mut self.poll);
    }

    /// The nodes to poll this round, ascending.
    pub(crate) fn poll(&self) -> &[u32] {
        &self.poll
    }

    /// Debug builds only: the nodes of `0..n` *not* on the poll list,
    /// ascending — the ones the round loop asserts would have stayed silent.
    #[cfg(debug_assertions)]
    pub(crate) fn unpolled(&self) -> impl Iterator<Item = usize> + '_ {
        let mut polled = self.poll.iter().peekable();
        (0..self.due.len()).filter(move |&i| polled.next_if(|&&p| p as usize == i).is_none())
    }

    /// Ends `round`: asks `next_activity(node)` — the node's answer for
    /// `after = round + 1`, `None` for a crashed node — once per node that was
    /// polled or is in `received` (ascending, like the poll list), and files
    /// the answer: next round or earlier → hot, a later round → timer,
    /// `None` → asleep until something reaches it.
    pub(crate) fn settle(
        &mut self,
        round: usize,
        received: &[u32],
        mut next_activity: impl FnMut(usize) -> Option<usize>,
    ) {
        // Merge the two ascending lists so a node on both is asked once.
        let (mut p, mut r) = (0, 0);
        loop {
            let v = match (self.poll.get(p), received.get(r)) {
                (Some(&a), Some(&b)) => {
                    p += usize::from(a <= b);
                    r += usize::from(b <= a);
                    a.min(b)
                }
                (Some(&a), None) => {
                    p += 1;
                    a
                }
                (None, Some(&b)) => {
                    r += 1;
                    b
                }
                (None, None) => break,
            };
            let i = v as usize;
            match next_activity(i).map(|t| t.min(LAST_TIMER)) {
                Some(t) if t <= round + 1 => {
                    self.due[i] = ASLEEP;
                    self.hot.insert(i);
                }
                Some(t) => {
                    let t = t as u32;
                    if self.due[i] != t {
                        self.due[i] = t;
                        self.timers.push(Reverse((t, v)));
                    }
                }
                None => self.due[i] = ASLEEP,
            }
        }
    }

    /// The next round with anyone to poll after an idle `round`: `round + 1`
    /// if a node is hot, else the earliest live timer (stale ones are
    /// discarded on the way), else `None` — the run is quiescent. Never
    /// earlier than `round + 1`.
    pub(crate) fn next_round(&mut self, round: usize) -> Option<usize> {
        if !self.hot.is_empty() {
            return Some(round + 1);
        }
        while let Some(&Reverse((t, v))) = self.timers.peek() {
            if self.due[v as usize] == t {
                return Some((t as usize).max(round + 1));
            }
            self.timers.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drained(set: &mut NodeSet) -> Vec<u32> {
        let mut out = Vec::new();
        set.drain_into(&mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn drain_yields_the_inserted_members_ascending_once(
            n in 1usize..400,
            picks in proptest::collection::vec(0usize..400, 0..64),
        ) {
            let mut set = NodeSet::new(n);
            let mut want: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
            for &v in &want {
                set.insert(v as usize);
            }
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(set.is_empty(), want.is_empty());
            // Draining appends: what `out` already holds stays in front.
            let mut out = vec![7u32];
            set.drain_into(&mut out);
            prop_assert_eq!(&out[1..], &want[..]);
            prop_assert!(set.is_empty());
            prop_assert_eq!(drained(&mut set), Vec::<u32>::new());
        }

        #[test]
        fn insert_all_covers_exactly_the_universe(n in 1usize..300) {
            // Most `n` here are not multiples of 64: the last word is partial.
            let mut set = NodeSet::new(n);
            set.insert(n / 2);
            set.insert_all();
            prop_assert_eq!(drained(&mut set), (0..n as u32).collect::<Vec<_>>());
            prop_assert!(set.is_empty());
        }
    }

    #[test]
    fn insert_all_at_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut set = NodeSet::new(n);
            set.insert_all();
            assert_eq!(set.is_empty(), n == 0);
            assert_eq!(drained(&mut set), (0..n as u32).collect::<Vec<_>>());
        }
    }

    /// Drives one round with `answers[node]` as every asked node's
    /// `next_activity`; returns the poll list.
    fn round(
        agenda: &mut Agenda,
        r: usize,
        received: &[u32],
        answers: &[Option<usize>],
    ) -> Vec<u32> {
        agenda.begin(r);
        let polled = agenda.poll().to_vec();
        agenda.settle(r, received, |i| answers[i]);
        polled
    }

    #[test]
    fn timers_fire_once_and_stale_ones_are_discarded() {
        let mut agenda = Agenda::new(4);
        // Round 0 polls everyone; node 1 names round 5, node 3 round 9.
        let polled = round(&mut agenda, 0, &[], &[None, Some(5), None, Some(9)]);
        assert_eq!(polled, vec![0, 1, 2, 3]);
        assert_eq!(agenda.next_round(0), Some(5));
        // Node 3 receives in round 5 and goes quiet: its round-9 timer is stale.
        let polled = round(&mut agenda, 5, &[3], &[None; 4]);
        assert_eq!(polled, vec![1]);
        assert_eq!(
            agenda.next_round(5),
            None,
            "a stale timer is not a reason to run on"
        );
        assert!(agenda.timers.is_empty());
    }

    #[test]
    fn past_and_present_answers_mean_next_round() {
        let mut agenda = Agenda::new(3);
        // Node 0 names a past round, node 1 the next one, node 2 the far future.
        round(&mut agenda, 7, &[], &[Some(0), Some(8), Some(usize::MAX)]);
        assert_eq!(
            agenda.next_round(7),
            Some(8),
            "never earlier than round + 1"
        );
        let polled = round(&mut agenda, 8, &[], &[None, None, Some(usize::MAX)]);
        assert_eq!(polled, vec![0, 1]);
        // The clamped far-future timer is still live.
        assert_eq!(agenda.next_round(8), Some(LAST_TIMER));
    }

    #[test]
    fn a_node_polled_and_receiving_is_asked_once() {
        let mut agenda = Agenda::new(5);
        agenda.begin(0);
        let mut asked = Vec::new();
        agenda.settle(0, &[1, 3], |i| {
            asked.push(i);
            None
        });
        assert_eq!(asked, vec![0, 1, 2, 3, 4]);
        // Asleep nodes that receive are asked too, ascending with the polled.
        agenda.wake_all();
        agenda.begin(1);
        agenda.settle(1, &[], |i| (i == 2).then_some(2));
        agenda.begin(2);
        assert_eq!(agenda.poll(), &[2]);
        asked.clear();
        agenda.settle(2, &[0, 2, 4], |i| {
            asked.push(i);
            None
        });
        assert_eq!(asked, vec![0, 2, 4]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn unpolled_is_the_complement_of_the_poll_list() {
        let mut agenda = Agenda::new(6);
        round(
            &mut agenda,
            0,
            &[],
            &[None, Some(1), None, None, Some(1), None],
        );
        agenda.begin(1);
        assert_eq!(agenda.poll(), &[1, 4]);
        assert_eq!(agenda.unpolled().collect::<Vec<_>>(), vec![0, 2, 3, 5]);
    }
}
