//! Incremental state updates: the delta half of the snapshot protocol.
//!
//! A Quickstrom session observes a long trace of states that differ only
//! locally — one checkbox toggles, one label re-renders — while the
//! dependency set can cover hundreds of elements (think a data grid).
//! Shipping a full [`StateSnapshot`] per protocol message therefore costs
//! O(all selectors × all elements) per step. A [`SnapshotDelta`] instead
//! carries, per selector, only the element positions whose projections
//! changed, plus the new `happened`/timestamp metadata, and a monotone
//! `state_version` so a receiver can detect missed updates.
//!
//! The algebra is exact, not lossy:
//!
//! ```text
//! SnapshotDelta::diff(base, next, v).apply(base) == next
//! ```
//!
//! and [`SnapshotDelta::apply`] shares the [`QueryResults`](crate::QueryResults) allocations of
//! every unchanged selector with the base snapshot, which is what lets the
//! checker keep a whole trace at O(changed) memory per step.
//!
//! [`StateUpdate`] is the wire type: executors send one full snapshot at
//! session start and deltas from then on (an executor may also keep
//! sending full snapshots — the checker accepts both forms of every
//! message, which the differential tests exploit to pin the two modes
//! bit-identical).

use crate::intern::Symbol;
use crate::snapshot::{ElementState, Selector, StateSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// The version of the delta encoding itself (bumped on incompatible
/// changes to [`SnapshotDelta`]'s layout, so two processes can detect a
/// mismatch before mis-applying updates).
pub const DELTA_FORMAT_VERSION: u32 = 1;

/// The change to one selector's query results between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryDelta {
    /// The selector is absent from the next snapshot (it left the
    /// instrumented set — dependency sets are fixed per session, so this
    /// only occurs in hand-built snapshots and generated tests).
    Removed,
    /// Element-level edits relative to the base result list.
    Edits {
        /// The length of the next result list. Positions `>= len` in the
        /// base are dropped; positions `>=` the base length are additions
        /// and always appear in `changed`.
        len: usize,
        /// `(index, new projection)` for every changed or added position,
        /// in index order.
        changed: Vec<(usize, ElementState)>,
    },
}

impl QueryDelta {
    /// An estimate of the encoded size in bytes (same model as
    /// [`StateSnapshot::wire_size`]).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            QueryDelta::Removed => 1,
            QueryDelta::Edits { changed, .. } => {
                1 + 4
                    + 4
                    + changed
                        .iter()
                        .map(|(_, e)| 4 + e.wire_size())
                        .sum::<usize>()
            }
        }
    }
}

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta's format version is not understood by this process.
    UnknownFormat(u32),
    /// A delta arrived before any full snapshot established a base state.
    MissingBase,
    /// An edit index points at or beyond the stated result length.
    IndexOutOfRange {
        /// The selector whose edit list is malformed.
        selector: Selector,
        /// The offending index.
        index: usize,
        /// The stated result length.
        len: usize,
    },
    /// A position past the base list's length (an *addition*) has no
    /// entry in the edit list — the sender dropped an edit; applying
    /// would have to invent element state.
    MissingAddition {
        /// The selector whose edit list is incomplete.
        selector: Selector,
        /// The uncovered added position.
        index: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownFormat(v) => write!(
                f,
                "snapshot delta format {v} is not supported (this process \
                 speaks format {DELTA_FORMAT_VERSION})"
            ),
            DeltaError::MissingBase => f.write_str(
                "received a snapshot delta before any full snapshot \
                 established a base state",
            ),
            DeltaError::IndexOutOfRange {
                selector,
                index,
                len,
            } => write!(
                f,
                "snapshot delta for {selector} edits index {index} of a \
                 {len}-element result list"
            ),
            DeltaError::MissingAddition { selector, index } => write!(
                f,
                "snapshot delta for {selector} grows the result list past \
                 its base but carries no element for added position {index}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// An incremental state update: everything that changed between two
/// consecutive snapshots of one session.
///
/// # Examples
///
/// ```
/// use quickstrom_protocol::{ElementState, SnapshotDelta, StateSnapshot};
///
/// let mut base = StateSnapshot::new();
/// base.insert_query("#a", vec![ElementState::with_text("one")]);
/// let mut next = base.clone();
/// next.insert_query("#a", vec![ElementState::with_text("two")]);
/// next.timestamp_ms = 7;
///
/// let delta = SnapshotDelta::diff(&base, &next, 2);
/// assert_eq!(delta.changed_selectors(), vec!["#a".into()]);
/// assert_eq!(delta.apply(&base).unwrap(), next);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotDelta {
    /// The delta encoding version ([`DELTA_FORMAT_VERSION`]).
    pub format: u32,
    /// The (monotone, per-session) version of the state this delta
    /// produces. The executor numbers states from 1 at the initial full
    /// snapshot; a receiver whose trace length disagrees with
    /// `state_version - 1` has missed an update.
    pub state_version: u64,
    /// Per-selector changes; selectors absent from this map are unchanged
    /// and keep the base snapshot's (shared) results.
    pub changes: BTreeMap<Selector, QueryDelta>,
    /// The `happened` names of the produced state, interned (see
    /// [`StateSnapshot::happened`]).
    pub happened: Vec<Symbol>,
    /// The virtual timestamp of the produced state.
    pub timestamp_ms: u64,
}

/// Element-level diff of one selector's result lists, or `None` when they
/// are identical — the single producer of the [`QueryDelta::Edits`]
/// format ([`SnapshotDelta::diff`] and incremental executors both call
/// this, so the proptested round-trip law covers every delta producer).
#[must_use]
pub fn diff_results(base: &[ElementState], next: &[ElementState]) -> Option<QueryDelta> {
    let mut changed = Vec::new();
    for (i, elem) in next.iter().enumerate() {
        if base.get(i) != Some(elem) {
            changed.push((i, elem.clone()));
        }
    }
    if changed.is_empty() && base.len() == next.len() {
        None
    } else {
        Some(QueryDelta::Edits {
            len: next.len(),
            changed,
        })
    }
}

impl SnapshotDelta {
    /// Computes the delta taking `base` to `next`, tagged with the
    /// version of the produced state.
    ///
    /// Selectors sharing a [`QueryResults`](crate::QueryResults) allocation between the two
    /// snapshots are skipped in O(1).
    #[must_use]
    pub fn diff(base: &StateSnapshot, next: &StateSnapshot, state_version: u64) -> SnapshotDelta {
        let mut changes = BTreeMap::new();
        for (sel, next_results) in &next.queries {
            match base.queries.get(sel) {
                Some(base_results) => {
                    if Arc::ptr_eq(base_results, next_results) {
                        continue;
                    }
                    if let Some(edit) = diff_results(base_results, next_results) {
                        changes.insert(*sel, edit);
                    }
                }
                None => {
                    changes.insert(
                        *sel,
                        QueryDelta::Edits {
                            len: next_results.len(),
                            changed: next_results.iter().cloned().enumerate().collect(),
                        },
                    );
                }
            }
        }
        for sel in base.queries.keys() {
            if !next.queries.contains_key(sel) {
                changes.insert(*sel, QueryDelta::Removed);
            }
        }
        SnapshotDelta {
            format: DELTA_FORMAT_VERSION,
            state_version,
            changes,
            happened: next.happened.clone(),
            timestamp_ms: next.timestamp_ms,
        }
    }

    /// Applies this delta to a base snapshot, producing the next state.
    ///
    /// Unchanged selectors share their [`QueryResults`](crate::QueryResults) allocation with
    /// `base`; only changed selectors materialise a new element list.
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownFormat`] for a version this process does not
    /// speak, [`DeltaError::IndexOutOfRange`] and
    /// [`DeltaError::MissingAddition`] for malformed edit lists.
    pub fn apply(&self, base: &StateSnapshot) -> Result<StateSnapshot, DeltaError> {
        if self.format != DELTA_FORMAT_VERSION {
            return Err(DeltaError::UnknownFormat(self.format));
        }
        let mut queries = base.queries.clone(); // O(selectors) Arc bumps
        for (sel, change) in &self.changes {
            match change {
                QueryDelta::Removed => {
                    queries.remove(sel);
                }
                QueryDelta::Edits { len, changed } => {
                    let base_results = base.queries.get(sel).map_or(&[][..], |r| r.as_slice());
                    // Each position past the base needs its own edit, so a
                    // longer list has an uncovered addition. Reject it
                    // before `len`, which comes off the wire, sizes the
                    // allocation below.
                    if *len > base_results.len() + changed.len() {
                        let covered: HashSet<usize> = changed.iter().map(|(i, _)| *i).collect();
                        let index = (base_results.len()..)
                            .find(|i| !covered.contains(i))
                            .expect("fewer edits than added positions");
                        return Err(DeltaError::MissingAddition {
                            selector: *sel,
                            index,
                        });
                    }
                    // Prefill with the base's elements; positions past the
                    // base length are *additions* and must be covered by
                    // an edit — fabricating default element state for a
                    // dropped edit would hand the evaluator invented data.
                    let mut list: Vec<Option<ElementState>> =
                        base_results.iter().take(*len).cloned().map(Some).collect();
                    list.resize_with(*len, || None);
                    for (index, elem) in changed {
                        let slot = list.get_mut(*index).ok_or(DeltaError::IndexOutOfRange {
                            selector: *sel,
                            index: *index,
                            len: *len,
                        })?;
                        *slot = Some(elem.clone());
                    }
                    let filled: Result<Vec<ElementState>, DeltaError> = list
                        .into_iter()
                        .enumerate()
                        .map(|(index, slot)| {
                            slot.ok_or(DeltaError::MissingAddition {
                                selector: *sel,
                                index,
                            })
                        })
                        .collect();
                    queries.insert(*sel, Arc::new(filled?));
                }
            }
        }
        Ok(StateSnapshot {
            queries,
            happened: self.happened.clone(),
            timestamp_ms: self.timestamp_ms,
        })
    }

    /// The selectors this delta touches, in selector order.
    #[must_use]
    pub fn changed_selectors(&self) -> Vec<Selector> {
        self.changes.keys().copied().collect()
    }

    /// An estimate of the encoded size in bytes (same model as
    /// [`StateSnapshot::wire_size`]).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        let strings = |s: &str| 4 + s.len();
        4 + 8
            + 4
            + self
                .changes
                .iter()
                .map(|(sel, c)| strings(sel.as_str()) + c.wire_size())
                .sum::<usize>()
            + 4
            + self
                .happened
                .iter()
                .map(|h| strings(h.as_str()))
                .sum::<usize>()
            + 8
    }
}

/// The state payload of an executor message: a full snapshot or an
/// incremental delta against the receiver's last reconstructed state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StateUpdate {
    /// A complete snapshot (always the first message of a session; an
    /// executor may also send full snapshots exclusively).
    Full(StateSnapshot),
    /// An incremental update against the previous state.
    Delta(SnapshotDelta),
}

impl StateUpdate {
    /// The full snapshot, when this update carries one.
    #[must_use]
    pub fn full(&self) -> Option<&StateSnapshot> {
        match self {
            StateUpdate::Full(s) => Some(s),
            StateUpdate::Delta(_) => None,
        }
    }

    /// `true` for delta updates.
    #[must_use]
    pub fn is_delta(&self) -> bool {
        matches!(self, StateUpdate::Delta(_))
    }

    /// The virtual timestamp of the carried state.
    #[must_use]
    pub fn timestamp_ms(&self) -> u64 {
        match self {
            StateUpdate::Full(s) => s.timestamp_ms,
            StateUpdate::Delta(d) => d.timestamp_ms,
        }
    }

    /// Reconstructs the carried state: a clone (cheap — shared query
    /// results) for full snapshots, [`SnapshotDelta::apply`] against
    /// `base` for deltas.
    ///
    /// # Errors
    ///
    /// [`DeltaError::MissingBase`] when a delta arrives with no base
    /// state, plus everything [`SnapshotDelta::apply`] reports.
    pub fn resolve(&self, base: Option<&StateSnapshot>) -> Result<StateSnapshot, DeltaError> {
        match self {
            StateUpdate::Full(s) => Ok(s.clone()),
            StateUpdate::Delta(d) => d.apply(base.ok_or(DeltaError::MissingBase)?),
        }
    }

    /// An estimate of the encoded size in bytes (same model as
    /// [`StateSnapshot::wire_size`]), including the one-byte variant tag.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        1 + match self {
            StateUpdate::Full(s) => s.wire_size(),
            StateUpdate::Delta(d) => d.wire_size(),
        }
    }
}

impl From<StateSnapshot> for StateUpdate {
    fn from(s: StateSnapshot) -> Self {
        StateUpdate::Full(s)
    }
}

impl From<SnapshotDelta> for StateUpdate {
    fn from(d: SnapshotDelta) -> Self {
        StateUpdate::Delta(d)
    }
}

/// Transport statistics for one executor session: what crossed the
/// checker⟷executor boundary, in the byte model of
/// [`StateSnapshot::wire_size`].
///
/// `full_bytes` is the counterfactual: what the same session would have
/// shipped had every state been a full snapshot. The quotient
/// ([`TransportStats::delta_ratio`]) is the headline number of the
/// incremental pipeline — `1.0` means deltas saved nothing, `0.05` means
/// the wire carried 5% of the full-snapshot cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// State-carrying messages sent.
    pub states: u64,
    /// Of those, full snapshots.
    pub full_states: u64,
    /// Of those, deltas.
    pub delta_states: u64,
    /// Estimated bytes actually shipped.
    pub shipped_bytes: u64,
    /// Estimated bytes had every state been shipped in full.
    pub full_bytes: u64,
    /// Total changed selectors across all state messages.
    pub changed_selectors: u64,
}

impl TransportStats {
    /// Records one sent update: its shipped size, the size of the
    /// equivalent full snapshot, and how many selectors it touched.
    pub fn record(&mut self, update: &StateUpdate, full_equivalent: usize, changed: usize) {
        self.states += 1;
        match update {
            StateUpdate::Full(_) => self.full_states += 1,
            StateUpdate::Delta(_) => self.delta_states += 1,
        }
        self.shipped_bytes += update.wire_size() as u64;
        self.full_bytes += full_equivalent as u64;
        self.changed_selectors += changed as u64;
    }

    /// Shipped bytes as a fraction of the full-snapshot counterfactual
    /// (`1.0` when nothing was sent).
    #[must_use]
    pub fn delta_ratio(&self) -> f64 {
        if self.full_bytes == 0 {
            1.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.shipped_bytes as f64 / self.full_bytes as f64
            }
        }
    }

    /// Component-wise accumulation.
    pub fn absorb(&mut self, other: TransportStats) {
        self.states += other.states;
        self.full_states += other.full_states;
        self.delta_states += other.delta_states;
        self.shipped_bytes += other.shipped_bytes;
        self.full_bytes += other.full_bytes;
        self.changed_selectors += other.changed_selectors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, &[&str])]) -> StateSnapshot {
        let mut s = StateSnapshot::new();
        for (sel, texts) in pairs {
            s.insert_query(
                Selector::new(*sel),
                texts.iter().map(|t| ElementState::with_text(*t)).collect(),
            );
        }
        s
    }

    #[test]
    fn diff_apply_round_trips() {
        let base = snap(&[("#a", &["x"]), (".items", &["1", "2"]), ("#gone", &["g"])]);
        let mut next = snap(&[("#a", &["x"]), (".items", &["1", "2", "3"]), ("#new", &[])]);
        next.happened.push("changed?".into());
        next.timestamp_ms = 42;
        let delta = SnapshotDelta::diff(&base, &next, 2);
        assert_eq!(delta.apply(&base).unwrap(), next);
        assert_eq!(
            delta.changed_selectors(),
            vec![
                Selector::new("#gone"),
                Selector::new("#new"),
                Selector::new(".items")
            ]
        );
    }

    #[test]
    fn unchanged_selectors_share_allocations_through_apply() {
        let base = snap(&[("#a", &["x"]), (".items", &["1", "2"])]);
        let mut next = base.clone();
        next.insert_query("#a", vec![ElementState::with_text("y")]);
        let delta = SnapshotDelta::diff(&base, &next, 2);
        let rebuilt = delta.apply(&base).unwrap();
        let items = Selector::new(".items");
        assert!(Arc::ptr_eq(&base.queries[&items], &rebuilt.queries[&items]));
        assert_eq!(rebuilt, next);
    }

    #[test]
    fn identical_snapshots_diff_to_empty_changes() {
        let base = snap(&[("#a", &["x"])]);
        let mut next = base.clone();
        next.timestamp_ms = 9;
        next.happened.push("timeout?".into());
        let delta = SnapshotDelta::diff(&base, &next, 2);
        assert!(delta.changes.is_empty());
        let rebuilt = delta.apply(&base).unwrap();
        assert_eq!(rebuilt, next);
        assert_eq!(rebuilt.timestamp_ms, 9);
    }

    #[test]
    fn per_element_edits_ship_only_changed_positions() {
        let texts: Vec<String> = (0..100).map(|i| format!("row {i}")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let base = snap(&[(".rows", &refs)]);
        let mut elems: Vec<ElementState> = base.queries[&Selector::new(".rows")]
            .iter()
            .cloned()
            .collect();
        elems[17].text = "edited".into();
        let mut next = base.clone();
        next.insert_query(".rows", elems);
        let delta = SnapshotDelta::diff(&base, &next, 2);
        match &delta.changes[&Selector::new(".rows")] {
            QueryDelta::Edits { len, changed } => {
                assert_eq!(*len, 100);
                assert_eq!(changed.len(), 1);
                assert_eq!(changed[0].0, 17);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(delta.wire_size() < next.wire_size() / 10);
        assert_eq!(delta.apply(&base).unwrap(), next);
    }

    #[test]
    fn resolve_requires_a_base_for_deltas() {
        let base = snap(&[("#a", &["x"])]);
        let next = snap(&[("#a", &["y"])]);
        let update: StateUpdate = SnapshotDelta::diff(&base, &next, 2).into();
        assert_eq!(update.resolve(None), Err(DeltaError::MissingBase));
        assert_eq!(update.resolve(Some(&base)).unwrap(), next);
        let full: StateUpdate = next.clone().into();
        assert_eq!(full.resolve(None).unwrap(), next);
    }

    #[test]
    fn apply_rejects_unknown_formats_and_bad_indices() {
        let base = snap(&[("#a", &["x"])]);
        let next = snap(&[("#a", &["y"])]);
        let mut delta = SnapshotDelta::diff(&base, &next, 2);
        let good = delta.clone();
        delta.format = 99;
        assert_eq!(delta.apply(&base), Err(DeltaError::UnknownFormat(99)));
        let mut bad = good;
        bad.changes.insert(
            Selector::new("#a"),
            QueryDelta::Edits {
                len: 1,
                changed: vec![(5, ElementState::default())],
            },
        );
        assert!(matches!(
            bad.apply(&base),
            Err(DeltaError::IndexOutOfRange {
                index: 5,
                len: 1,
                ..
            })
        ));
    }

    #[test]
    fn apply_rejects_uncovered_additions() {
        // A delta that grows the list must carry every added element; a
        // sender that drops one may not have default state invented for
        // it.
        let base = snap(&[("#a", &["x"])]);
        let mut next = snap(&[("#a", &["x", "y", "z"])]);
        next.timestamp_ms = 3;
        let good = SnapshotDelta::diff(&base, &next, 2);
        assert_eq!(good.apply(&base).unwrap(), next);
        let mut bad = good;
        if let Some(QueryDelta::Edits { changed, .. }) = bad.changes.get_mut(&Selector::new("#a")) {
            changed.retain(|(i, _)| *i != 2); // drop the edit for slot 2
        }
        assert_eq!(
            bad.apply(&base),
            Err(DeltaError::MissingAddition {
                selector: Selector::new("#a"),
                index: 2,
            })
        );
        // A declared length no edit list could cover is refused before
        // anything is allocated for it.
        bad.changes.insert(
            Selector::new("#a"),
            QueryDelta::Edits {
                len: u32::MAX as usize,
                changed: Vec::new(),
            },
        );
        assert_eq!(
            bad.apply(&base),
            Err(DeltaError::MissingAddition {
                selector: Selector::new("#a"),
                index: 1,
            })
        );
    }

    #[test]
    fn transport_stats_accumulate() {
        // A realistically-sized state: the delta overhead amortises only
        // when unchanged selectors dominate (one row of many changes).
        let rows: Vec<String> = (0..50).map(|i| format!("row {i}")).collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let base = snap(&[(".rows", &refs), ("#status", &["idle"])]);
        let mut next = base.clone();
        next.insert_query("#status", vec![ElementState::with_text("busy")]);
        let mut stats = TransportStats::default();
        let full: StateUpdate = base.clone().into();
        stats.record(&full, base.wire_size(), 1);
        let delta: StateUpdate = SnapshotDelta::diff(&base, &next, 2).into();
        stats.record(&delta, next.wire_size(), 1);
        assert_eq!(stats.states, 2);
        assert_eq!(stats.full_states, 1);
        assert_eq!(stats.delta_states, 1);
        assert_eq!(stats.changed_selectors, 2);
        assert!(stats.delta_ratio() < 1.0);
        let mut total = TransportStats::default();
        total.absorb(stats);
        assert_eq!(total, stats);
        assert_eq!(TransportStats::default().delta_ratio(), 1.0);
    }

    #[test]
    fn delta_error_display() {
        assert!(DeltaError::UnknownFormat(3)
            .to_string()
            .contains("format 3"));
        assert!(DeltaError::MissingBase
            .to_string()
            .contains("full snapshot"));
        let e = DeltaError::IndexOutOfRange {
            selector: Selector::new("#x"),
            index: 4,
            len: 2,
        };
        assert!(e.to_string().contains("index 4"));
    }
}
