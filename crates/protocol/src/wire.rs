//! A hand-rolled binary wire codec for the checker/executor protocol.
//!
//! The checker talks to an executor only through one message seam
//! ([`crate::Executor::send`]); this module makes that seam a *process*
//! boundary. Every [`CheckerMsg`] and [`ExecutorMsg`] — state
//! snapshots, deltas and all — round-trips through a self-describing
//! binary encoding, framed with a little-endian `u32` length prefix, so a
//! remote executor can serve sessions over any byte stream (see
//! `examples/remote_executor.rs` for the TCP loop).
//!
//! The encoding is deliberately boring: fixed-width little-endian
//! integers, length-prefixed UTF-8 strings, one tag byte per enum
//! variant, containers as a `u32` count followed by the items in order.
//! [`Symbol`]s and [`Selector`]s travel as their strings and are
//! re-interned on decode — symbol indices are process-local (see
//! [`crate::intern`]) and must never cross the wire.
//!
//! The request/reply discipline mirrors [`crate::Executor::send`]: the
//! checker side writes one framed [`CheckerMsg`] and reads one framed
//! *batch* of [`ExecutorMsg`] replies (a `u32` count, then each message),
//! keeping the remote seam bufferable and strictly ordered — exactly the
//! properties the in-process executors provide.

use crate::delta::{QueryDelta, SnapshotDelta, StateUpdate};
use crate::intern::Symbol;
use crate::messages::{ActionInstance, ActionKind, CheckerMsg, ExecutorMsg, Key};
use crate::snapshot::{ElementState, QueryResults, Selector, StateSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

/// The largest frame a conforming peer may send: 64 MiB. Big-table
/// snapshots are ~3 MB; anything near this bound is a protocol error or a
/// hostile peer, and refusing it keeps `read_frame` from allocating
/// unbounded memory on a corrupt length prefix.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Why encoding, decoding, or framing failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying byte stream failed (or reached EOF mid-frame).
    Io(std::io::Error),
    /// The bytes do not describe a valid message: an unknown enum tag,
    /// a truncated payload, invalid UTF-8, or trailing garbage.
    Malformed(String),
    /// A frame length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversized(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o failed: {e}"),
            WireError::Malformed(what) => write!(f, "malformed wire data: {what}"),
            WireError::Oversized(len) => write!(
                f,
                "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encodes one checker message to a standalone byte payload (no frame
/// prefix; pair with [`write_frame`]).
#[must_use]
pub fn encode_checker_msg(msg: &CheckerMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_checker_msg(&mut out, msg);
    out
}

/// Decodes one checker message from a payload produced by
/// [`encode_checker_msg`], rejecting trailing bytes.
pub fn decode_checker_msg(bytes: &[u8]) -> Result<CheckerMsg, WireError> {
    let mut r = Reader::new(bytes);
    let msg = take_checker_msg(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Encodes one executor reply batch (the `Vec<ExecutorMsg>` that
/// [`crate::Executor::send`] returns) to a standalone byte payload.
#[must_use]
pub fn encode_executor_batch(batch: &[ExecutorMsg]) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u32(&mut out, batch.len() as u32);
    for msg in batch {
        put_executor_msg(&mut out, msg);
    }
    out
}

/// Decodes one executor reply batch from a payload produced by
/// [`encode_executor_batch`], rejecting trailing bytes.
pub fn decode_executor_batch(bytes: &[u8]) -> Result<Vec<ExecutorMsg>, WireError> {
    let mut r = Reader::new(bytes);
    let count = take_u32(&mut r)?;
    let mut batch = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        batch.push(take_executor_msg(&mut r)?);
    }
    r.finish()?;
    Ok(batch)
}

/// Writes one length-prefixed frame: a little-endian `u32` payload length,
/// then the payload. Flushes, so a frame is visible to the peer as soon as
/// this returns.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or(WireError::Oversized(payload.len() as u32))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame written by [`write_frame`]. Returns
/// `Ok(None)` on a clean EOF *between* frames (the peer closed the
/// session); EOF inside a frame is an [`WireError::Io`] error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut prefix = [0u8; 4];
    // A clean close lands here with zero bytes; a torn frame does not.
    match r.read(&mut prefix)? {
        0 => return Ok(None),
        n => r.read_exact(&mut prefix[n..])?,
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ── primitive writers ────────────────────────────────────────────────────

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt<T>(out: &mut Vec<u8>, v: Option<&T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => put_u8(out, 0),
        Some(inner) => {
            put_u8(out, 1);
            put(out, inner);
        }
    }
}

// ── primitive readers ────────────────────────────────────────────────────

/// A bounds-checked cursor over one decoded payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| WireError::Malformed("truncated payload".into()))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing byte(s) after the message",
                self.bytes.len() - self.at
            )))
        }
    }
}

fn take_u8(r: &mut Reader) -> Result<u8, WireError> {
    Ok(r.take(1)?[0])
}

fn take_u32(r: &mut Reader) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")))
}

fn take_u64(r: &mut Reader) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes")))
}

fn take_bool(r: &mut Reader) -> Result<bool, WireError> {
    match take_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::Malformed(format!("bool tag {t}"))),
    }
}

fn take_string(r: &mut Reader) -> Result<String, WireError> {
    let len = take_u32(r)? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
}

fn take_opt<T>(
    r: &mut Reader,
    take: impl FnOnce(&mut Reader) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match take_u8(r)? {
        0 => Ok(None),
        1 => Ok(Some(take(r)?)),
        t => Err(WireError::Malformed(format!("option tag {t}"))),
    }
}

// ── protocol vocabulary ──────────────────────────────────────────────────
//
// Symbols and selectors travel as strings: interner indices are
// process-local, and `Symbol::intern` makes re-interning on decode the
// identity-preserving move (equal strings ⇒ equal symbols).

fn put_symbol(out: &mut Vec<u8>, sym: &Symbol) {
    put_str(out, sym.as_str());
}

fn take_symbol(r: &mut Reader) -> Result<Symbol, WireError> {
    Ok(Symbol::intern(&take_string(r)?))
}

fn put_selector(out: &mut Vec<u8>, sel: &Selector) {
    put_str(out, sel.as_str());
}

fn take_selector(r: &mut Reader) -> Result<Selector, WireError> {
    Ok(Selector::new(take_string(r)?))
}

fn put_element(out: &mut Vec<u8>, e: &ElementState) {
    put_str(out, &e.text);
    put_str(out, &e.value);
    put_bool(out, e.checked);
    put_bool(out, e.enabled);
    put_bool(out, e.visible);
    put_bool(out, e.focused);
    put_u32(out, e.classes.len() as u32);
    for class in &e.classes {
        put_str(out, class);
    }
    put_u32(out, e.attributes.len() as u32);
    for (name, value) in &e.attributes {
        put_symbol(out, name);
        put_str(out, value);
    }
}

fn take_element(r: &mut Reader) -> Result<ElementState, WireError> {
    let text = take_string(r)?;
    let value = take_string(r)?;
    let checked = take_bool(r)?;
    let enabled = take_bool(r)?;
    let visible = take_bool(r)?;
    let focused = take_bool(r)?;
    let classes = (0..take_u32(r)?)
        .map(|_| take_string(r))
        .collect::<Result<Vec<_>, _>>()?;
    let mut attributes = BTreeMap::new();
    for _ in 0..take_u32(r)? {
        let name = take_symbol(r)?;
        attributes.insert(name, take_string(r)?);
    }
    Ok(ElementState {
        text,
        value,
        checked,
        enabled,
        visible,
        focused,
        classes,
        attributes,
    })
}

fn put_query_results(out: &mut Vec<u8>, results: &QueryResults) {
    put_u32(out, results.len() as u32);
    for element in results.iter() {
        put_element(out, element);
    }
}

fn take_query_results(r: &mut Reader) -> Result<QueryResults, WireError> {
    let elements = (0..take_u32(r)?)
        .map(|_| take_element(r))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Arc::new(elements))
}

fn put_snapshot(out: &mut Vec<u8>, s: &StateSnapshot) {
    put_u32(out, s.queries.len() as u32);
    for (selector, results) in &s.queries {
        put_selector(out, selector);
        put_query_results(out, results);
    }
    put_u32(out, s.happened.len() as u32);
    for event in &s.happened {
        put_symbol(out, event);
    }
    put_u64(out, s.timestamp_ms);
}

fn take_snapshot(r: &mut Reader) -> Result<StateSnapshot, WireError> {
    let mut queries = BTreeMap::new();
    for _ in 0..take_u32(r)? {
        let selector = take_selector(r)?;
        queries.insert(selector, take_query_results(r)?);
    }
    let happened = (0..take_u32(r)?)
        .map(|_| take_symbol(r))
        .collect::<Result<Vec<_>, _>>()?;
    let timestamp_ms = take_u64(r)?;
    Ok(StateSnapshot {
        queries,
        happened,
        timestamp_ms,
    })
}

fn put_query_delta(out: &mut Vec<u8>, d: &QueryDelta) {
    match d {
        QueryDelta::Removed => put_u8(out, 0),
        QueryDelta::Edits { len, changed } => {
            put_u8(out, 1);
            put_u32(out, *len as u32);
            put_u32(out, changed.len() as u32);
            for (index, element) in changed {
                put_u32(out, *index as u32);
                put_element(out, element);
            }
        }
    }
}

fn take_query_delta(r: &mut Reader) -> Result<QueryDelta, WireError> {
    match take_u8(r)? {
        0 => Ok(QueryDelta::Removed),
        1 => {
            let len = take_u32(r)? as usize;
            let mut changed = Vec::new();
            for _ in 0..take_u32(r)? {
                let index = take_u32(r)? as usize;
                changed.push((index, take_element(r)?));
            }
            Ok(QueryDelta::Edits { len, changed })
        }
        t => Err(WireError::Malformed(format!("query-delta tag {t}"))),
    }
}

fn put_delta(out: &mut Vec<u8>, d: &SnapshotDelta) {
    put_u32(out, d.format);
    put_u64(out, d.state_version);
    put_u32(out, d.changes.len() as u32);
    for (selector, change) in &d.changes {
        put_selector(out, selector);
        put_query_delta(out, change);
    }
    put_u32(out, d.happened.len() as u32);
    for event in &d.happened {
        put_symbol(out, event);
    }
    put_u64(out, d.timestamp_ms);
}

fn take_delta(r: &mut Reader) -> Result<SnapshotDelta, WireError> {
    let format = take_u32(r)?;
    let state_version = take_u64(r)?;
    let mut changes = BTreeMap::new();
    for _ in 0..take_u32(r)? {
        let selector = take_selector(r)?;
        changes.insert(selector, take_query_delta(r)?);
    }
    let happened = (0..take_u32(r)?)
        .map(|_| take_symbol(r))
        .collect::<Result<Vec<_>, _>>()?;
    let timestamp_ms = take_u64(r)?;
    Ok(SnapshotDelta {
        format,
        state_version,
        changes,
        happened,
        timestamp_ms,
    })
}

fn put_update(out: &mut Vec<u8>, u: &StateUpdate) {
    match u {
        StateUpdate::Full(snapshot) => {
            put_u8(out, 0);
            put_snapshot(out, snapshot);
        }
        StateUpdate::Delta(delta) => {
            put_u8(out, 1);
            put_delta(out, delta);
        }
    }
}

fn take_update(r: &mut Reader) -> Result<StateUpdate, WireError> {
    match take_u8(r)? {
        0 => Ok(StateUpdate::Full(take_snapshot(r)?)),
        1 => Ok(StateUpdate::Delta(take_delta(r)?)),
        t => Err(WireError::Malformed(format!("state-update tag {t}"))),
    }
}

fn put_key(out: &mut Vec<u8>, k: &Key) {
    match k {
        Key::Enter => put_u8(out, 0),
        Key::Escape => put_u8(out, 1),
        Key::Char(c) => {
            put_u8(out, 2);
            put_u32(out, *c as u32);
        }
    }
}

fn take_key(r: &mut Reader) -> Result<Key, WireError> {
    match take_u8(r)? {
        0 => Ok(Key::Enter),
        1 => Ok(Key::Escape),
        2 => {
            let code = take_u32(r)?;
            char::from_u32(code)
                .map(Key::Char)
                .ok_or_else(|| WireError::Malformed(format!("scalar value {code}")))
        }
        t => Err(WireError::Malformed(format!("key tag {t}"))),
    }
}

fn put_action_kind(out: &mut Vec<u8>, k: &ActionKind) {
    match k {
        ActionKind::Click => put_u8(out, 0),
        ActionKind::DblClick => put_u8(out, 1),
        ActionKind::Focus => put_u8(out, 2),
        ActionKind::Input(text) => {
            put_u8(out, 3);
            put_opt(out, text.as_ref(), |out, s| put_str(out, s));
        }
        ActionKind::KeyPress(key) => {
            put_u8(out, 4);
            put_key(out, key);
        }
        ActionKind::Noop => put_u8(out, 5),
        ActionKind::Reload => put_u8(out, 6),
    }
}

fn take_action_kind(r: &mut Reader) -> Result<ActionKind, WireError> {
    match take_u8(r)? {
        0 => Ok(ActionKind::Click),
        1 => Ok(ActionKind::DblClick),
        2 => Ok(ActionKind::Focus),
        3 => Ok(ActionKind::Input(take_opt(r, take_string)?)),
        4 => Ok(ActionKind::KeyPress(take_key(r)?)),
        5 => Ok(ActionKind::Noop),
        6 => Ok(ActionKind::Reload),
        t => Err(WireError::Malformed(format!("action-kind tag {t}"))),
    }
}

fn put_action(out: &mut Vec<u8>, a: &ActionInstance) {
    put_str(out, &a.name);
    put_action_kind(out, &a.kind);
    put_opt(out, a.target.as_ref(), |out, (selector, index)| {
        put_selector(out, selector);
        put_u32(out, *index as u32);
    });
    put_opt(out, a.timeout_ms.as_ref(), |out, ms| put_u64(out, *ms));
}

fn take_action(r: &mut Reader) -> Result<ActionInstance, WireError> {
    let name = take_string(r)?;
    let kind = take_action_kind(r)?;
    let target = take_opt(r, |r| {
        let selector = take_selector(r)?;
        Ok((selector, take_u32(r)? as usize))
    })?;
    let timeout_ms = take_opt(r, take_u64)?;
    Ok(ActionInstance {
        name,
        kind,
        target,
        timeout_ms,
    })
}

fn put_checker_msg(out: &mut Vec<u8>, msg: &CheckerMsg) {
    match msg {
        CheckerMsg::Start { dependencies } => {
            put_u8(out, 0);
            put_u32(out, dependencies.len() as u32);
            for selector in dependencies {
                put_selector(out, selector);
            }
        }
        CheckerMsg::Act { action, version } => {
            put_u8(out, 1);
            put_action(out, action);
            put_u64(out, *version);
        }
        CheckerMsg::Wait { time_ms, version } => {
            put_u8(out, 2);
            put_u64(out, *time_ms);
            put_u64(out, *version);
        }
        CheckerMsg::End => put_u8(out, 3),
    }
}

fn take_checker_msg(r: &mut Reader) -> Result<CheckerMsg, WireError> {
    match take_u8(r)? {
        0 => {
            let dependencies = (0..take_u32(r)?)
                .map(|_| take_selector(r))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(CheckerMsg::Start { dependencies })
        }
        1 => {
            let action = take_action(r)?;
            let version = take_u64(r)?;
            Ok(CheckerMsg::Act { action, version })
        }
        2 => {
            let time_ms = take_u64(r)?;
            let version = take_u64(r)?;
            Ok(CheckerMsg::Wait { time_ms, version })
        }
        3 => Ok(CheckerMsg::End),
        t => Err(WireError::Malformed(format!("checker-msg tag {t}"))),
    }
}

fn put_executor_msg(out: &mut Vec<u8>, msg: &ExecutorMsg) {
    match msg {
        ExecutorMsg::Event {
            event,
            detail,
            state,
        } => {
            put_u8(out, 0);
            put_str(out, event);
            put_u32(out, detail.len() as u32);
            for selector in detail {
                put_selector(out, selector);
            }
            put_update(out, state);
        }
        ExecutorMsg::Acted { state } => {
            put_u8(out, 1);
            put_update(out, state);
        }
        ExecutorMsg::Timeout { state } => {
            put_u8(out, 2);
            put_update(out, state);
        }
    }
}

fn take_executor_msg(r: &mut Reader) -> Result<ExecutorMsg, WireError> {
    match take_u8(r)? {
        0 => {
            let event = take_string(r)?;
            let detail = (0..take_u32(r)?)
                .map(|_| take_selector(r))
                .collect::<Result<Vec<_>, _>>()?;
            let state = take_update(r)?;
            Ok(ExecutorMsg::Event {
                event,
                detail,
                state,
            })
        }
        1 => Ok(ExecutorMsg::Acted {
            state: take_update(r)?,
        }),
        2 => Ok(ExecutorMsg::Timeout {
            state: take_update(r)?,
        }),
        t => Err(WireError::Malformed(format!("executor-msg tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DELTA_FORMAT_VERSION;

    fn element(text: &str) -> ElementState {
        let mut e = ElementState {
            text: text.into(),
            value: "v".into(),
            checked: true,
            enabled: false,
            visible: true,
            focused: false,
            classes: vec!["completed".into(), "editing".into()],
            attributes: BTreeMap::new(),
        };
        e.attributes.insert(Symbol::intern("href"), "#/".into());
        e
    }

    fn snapshot() -> StateSnapshot {
        let mut queries = BTreeMap::new();
        queries.insert(
            Selector::new(".todo-list li"),
            Arc::new(vec![element("buy milk"), element("write tests")]),
        );
        queries.insert(Selector::new(".new-todo"), Arc::new(Vec::new()));
        StateSnapshot {
            queries,
            happened: vec![Symbol::intern("loaded?")],
            timestamp_ms: 12345,
        }
    }

    fn delta() -> SnapshotDelta {
        let mut changes = BTreeMap::new();
        changes.insert(
            Selector::new(".todo-list li"),
            QueryDelta::Edits {
                len: 3,
                changed: vec![(2, element("new item"))],
            },
        );
        changes.insert(Selector::new(".gone"), QueryDelta::Removed);
        SnapshotDelta {
            format: DELTA_FORMAT_VERSION,
            state_version: 7,
            changes,
            happened: vec![Symbol::intern("changed?")],
            timestamp_ms: 999,
        }
    }

    /// One checker message of every variant (and every action-kind
    /// payload shape).
    fn checker_msgs() -> Vec<CheckerMsg> {
        vec![
            CheckerMsg::Start {
                dependencies: vec![Selector::new(".todo-list li"), Selector::new(".toggle")],
            },
            CheckerMsg::Act {
                action: ActionInstance::targeted(
                    "type!",
                    ActionKind::Input(Some("milk".into())),
                    ".new-todo",
                    0,
                )
                .with_timeout(250),
                version: 42,
            },
            CheckerMsg::Act {
                action: ActionInstance::untargeted("noop!", ActionKind::Noop),
                version: 0,
            },
            CheckerMsg::Act {
                action: ActionInstance::targeted(
                    "commit!",
                    ActionKind::KeyPress(Key::Char('λ')),
                    ".new-todo",
                    3,
                ),
                version: 9,
            },
            CheckerMsg::Wait {
                time_ms: 1000,
                version: 3,
            },
            CheckerMsg::End,
        ]
    }

    /// One executor message of every variant, carrying both update forms.
    fn executor_batch() -> Vec<ExecutorMsg> {
        vec![
            ExecutorMsg::event(
                "loaded?",
                vec![Selector::new(".todo-list li")],
                StateUpdate::Full(snapshot()),
            ),
            ExecutorMsg::acted(StateUpdate::Delta(delta())),
            ExecutorMsg::timeout(StateUpdate::Full(snapshot())),
        ]
    }

    #[test]
    fn checker_msgs_round_trip() {
        for msg in checker_msgs() {
            let bytes = encode_checker_msg(&msg);
            assert_eq!(decode_checker_msg(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn executor_batches_round_trip() {
        let batch = executor_batch();
        let bytes = encode_executor_batch(&batch);
        assert_eq!(decode_executor_batch(&bytes).unwrap(), batch);
        // The empty batch (a stale Act's reply) is a valid frame too.
        assert_eq!(
            decode_executor_batch(&encode_executor_batch(&[])).unwrap(),
            Vec::new()
        );
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut stream = Vec::new();
        let first = encode_checker_msg(&CheckerMsg::End);
        let second = encode_executor_batch(&[ExecutorMsg::acted(StateUpdate::Full(snapshot()))]);
        write_frame(&mut stream, &first).unwrap();
        write_frame(&mut stream, &second).unwrap();
        let mut cursor = &stream[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&first[..])
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&second[..])
        );
        // Clean EOF between frames is a session close, not an error.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn corrupt_payloads_are_rejected_not_panicked() {
        // Unknown tag.
        assert!(matches!(
            decode_checker_msg(&[9]),
            Err(WireError::Malformed(_))
        ));
        // Truncation at every prefix of a real message.
        let bytes = encode_executor_batch(&[ExecutorMsg::acted(StateUpdate::Delta(delta()))]);
        for cut in 0..bytes.len() {
            assert!(
                decode_executor_batch(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage.
        let mut padded = encode_checker_msg(&CheckerMsg::End);
        padded.push(0);
        assert!(matches!(
            decode_checker_msg(&padded),
            Err(WireError::Malformed(_))
        ));
        // Oversized frame prefixes are refused before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn decoding_is_total_on_corrupted_and_random_bytes() {
        // SplitMix64: a reproducible, dependency-free random source.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let batch = executor_batch();
        let mut seeds: Vec<Vec<u8>> = checker_msgs().iter().map(encode_checker_msg).collect();
        seeds.extend(
            batch
                .iter()
                .map(|m| encode_executor_batch(std::slice::from_ref(m))),
        );
        seeds.push(encode_executor_batch(&batch));
        let base = snapshot();
        let mut resolved = 0;
        for _ in 0..250_000 {
            // A quarter random bytes; the rest valid encodings with one to
            // four bits flipped, a third of those also truncated.
            let bytes: Vec<u8> = match next() % 4 {
                0 => (0..next() % 96).map(|_| next() as u8).collect(),
                mode => {
                    let mut bytes = seeds[(next() % seeds.len() as u64) as usize].clone();
                    for _ in 0..=next() % 4 {
                        let bit = (next() % (bytes.len() as u64 * 8)) as usize;
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    if mode == 1 {
                        bytes.truncate((next() % (bytes.len() as u64 + 1)) as usize);
                    }
                    bytes
                }
            };
            // Either decoder may reject the bytes; neither may panic. A
            // decoded update is wire input too: resolving it may fail but
            // must not panic or allocate what its lengths claim.
            let _ = decode_checker_msg(&bytes);
            if let Ok(batch) = decode_executor_batch(&bytes) {
                for msg in &batch {
                    let _ = msg.update().resolve(Some(&base));
                    let _ = msg.update().resolve(None);
                    resolved += 1;
                }
            }
        }
        assert!(resolved > 100, "only {resolved} corrupted updates decoded");
    }

    #[test]
    fn symbols_re_intern_by_content() {
        let msg = CheckerMsg::Start {
            dependencies: vec![Selector::new("#fresh-selector-for-wire-test")],
        };
        let decoded = decode_checker_msg(&encode_checker_msg(&msg)).unwrap();
        let CheckerMsg::Start { dependencies } = decoded else {
            panic!("variant changed in flight");
        };
        // Selector equality is symbol equality, which is string equality —
        // the decode side re-interned and landed on the same symbol.
        assert_eq!(
            dependencies[0],
            Selector::new("#fresh-selector-for-wire-test")
        );
    }
}
