//! String-to-set tokenization.
//!
//! The paper maps strings into sets by tokenizing them into words or q-grams
//! and treats the result as a *set* (duplicates collapsed). Cleaning —
//! lower-casing and punctuation removal — happens inside the algorithms
//! ("we did not clean the records before running our algorithms... We did
//! the cleaning inside our algorithms"), so the tokenizers here clean as
//! they tokenize.

use std::fmt::Write as _;
use std::hash::{BuildHasher, RandomState};
use std::ops::Range;
use std::sync::OnceLock;

/// How duplicate tokens within one string are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// Keep the first occurrence only: the string becomes a true set.
    #[default]
    Collapse,
    /// Make duplicates distinct by appending an occurrence ordinal
    /// (`the`, `the#2`, `the#3`), preserving multiset semantics.
    Number,
}

/// A tokenizer turns a string into a list of distinct tokens.
pub trait Tokenizer {
    /// Tokenize `text` into `buf`, replacing whatever `buf` held: distinct
    /// tokens (per the [`DedupMode`]) in first-occurrence order. A caller
    /// that keeps one buffer for many records allocates nothing per token.
    fn tokenize_into(&self, text: &str, buf: &mut TokenBuf);

    /// Tokenize `text` into owned strings.
    fn tokenize(&self, text: &str) -> Vec<String> {
        let mut buf = TokenBuf::new();
        self.tokenize_into(text, &mut buf);
        buf.iter().map(str::to_string).collect()
    }
}

/// The keyed hash of a token's bytes: one folded multiply per 8 bytes,
/// under two 64-bit keys drawn once per process from std's `RandomState`.
///
/// Tokens come from outside the program, so the keys are what stands
/// between a crafted record and a quadratic probe: they are secret to the
/// process, and a hash never leaves it — nothing stores, sends or orders by
/// one.
pub fn token_hash(bytes: &[u8]) -> u64 {
    let [seed, multiplier] = *hash_keys();
    let mut h = seed ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of 8 bytes"));
        h = folded_multiply(h ^ word, multiplier);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        h = folded_multiply(h ^ tail_word(tail), multiplier);
    }
    h
}

fn hash_keys() -> &'static [u64; 2] {
    static KEYS: OnceLock<[u64; 2]> = OnceLock::new();
    KEYS.get_or_init(|| {
        let state = RandomState::new();
        [state.hash_one(0u64), state.hash_one(1u64) | 1]
    })
}

/// The 128-bit product's halves folded together.
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    full as u64 ^ (full >> 64) as u64
}

/// The 1–7 bytes after the last whole word, as one word. The reads overlap,
/// but for a given length they still cover every byte, and the length is in
/// the seed.
fn tail_word(tail: &[u8]) -> u64 {
    let n = tail.len();
    if n >= 4 {
        let lo = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(tail[n - 4..].try_into().expect("4 bytes"));
        u64::from(lo) | u64::from(hi) << 32
    } else {
        u64::from(tail[0]) | u64::from(tail[n / 2]) << 8 | u64::from(tail[n - 1]) << 16
    }
}

/// A token and its [`token_hash`], taken once: what a [`TokenTable`] looks
/// up and stores, so a token found in one table is not hashed again to be
/// looked up in another.
#[derive(Debug, Clone, Copy)]
pub struct HashedToken<'a> {
    token: &'a str,
    hash: u64,
}

impl<'a> HashedToken<'a> {
    /// Hash `token`.
    pub fn new(token: &'a str) -> Self {
        HashedToken {
            token,
            hash: token_hash(token.as_bytes()),
        }
    }

    /// The token.
    pub fn as_str(&self) -> &'a str {
        self.token
    }
}

/// Distinct tokens numbered in insertion order, each stored once: the token
/// bytes end to end in one arena, each entry's end and [`token_hash`], and,
/// beyond 16 entries, an open-addressed index of entry numbers. Up to that
/// many a lookup scans the entries, comparing hashes before bytes. The
/// index is built at the size the table last needed (from 128 up to 4 096
/// slots, so a reused table sizes it once) and doubles at half full,
/// placing entries by their stored hashes.
///
/// The one probe over token bytes in this crate: a record's duplicate
/// check ([`TokenBuf`]), the global order ([`crate::TokenOrder`]) and a
/// count table are each one of these.
#[derive(Debug, Clone, Default)]
pub struct TokenTable {
    arena: String,
    entries: Vec<Entry>,
    /// Entry number + 1 per slot, 0 for an empty slot; a power of two long,
    /// at most half full. Empty while the entries are few enough to scan.
    slots: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Where the token ends in the arena; it starts where the one before
    /// ends.
    end: usize,
    hash: u64,
}

/// Most entries a lookup scans.
const SCAN_MAX: usize = 16;
/// Slots in the smallest index, and in the largest one a cleared table
/// starts from (both powers of two).
const TABLE_MIN: usize = 128;
const TABLE_KEEP: usize = 4096;

impl TokenTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no token.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Token number `i`.
    pub fn get(&self, i: usize) -> Option<&str> {
        (i < self.len()).then(|| &self.arena[self.span(i)])
    }

    /// The tokens, in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| &self.arena[self.span(i)])
    }

    /// The tokens with their hashes, in insertion order.
    pub fn hashed(&self) -> impl ExactSizeIterator<Item = HashedToken<'_>> + '_ {
        (0..self.len()).map(|i| HashedToken {
            token: &self.arena[self.span(i)],
            hash: self.entries[i].hash,
        })
    }

    /// The number of `token`, if the table holds it.
    pub fn find(&self, token: HashedToken<'_>) -> Option<usize> {
        self.find_bytes(token.token.as_bytes(), token.hash)
    }

    /// Add `token`, which the table must not hold yet; returns its number.
    pub fn push(&mut self, token: HashedToken<'_>) -> usize {
        debug_assert!(
            self.find(token).is_none(),
            "{:?} is already in the table",
            token.token
        );
        self.arena.push_str(token.token);
        self.push_tail(token.hash)
    }

    /// Remove every token, keeping the allocations.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.entries.clear();
        self.slots.clear();
    }

    /// Approximate heap size in bytes: the token bytes once, an entry per
    /// token and the index.
    pub fn approx_bytes(&self) -> u64 {
        let entries = self.entries.len() * std::mem::size_of::<Entry>();
        let slots = self.slots.len() * std::mem::size_of::<u32>();
        (self.arena.len() + entries + slots) as u64
    }

    /// Where the arena's uncommitted tail starts.
    fn end(&self) -> usize {
        self.entries.last().map_or(0, |e| e.end)
    }

    fn span(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.entries[i - 1].end };
        start..self.entries[i].end
    }

    fn find_bytes(&self, token: &[u8], hash: u64) -> Option<usize> {
        let arena = self.arena.as_bytes();
        if self.slots.is_empty() {
            let mut start = 0;
            for (i, e) in self.entries.iter().enumerate() {
                if e.hash == hash && &arena[start..e.end] == token {
                    return Some(i);
                }
                start = e.end;
            }
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let i = (self.slots[slot] as usize).checked_sub(1)?;
            if self.entries[i].hash == hash && &arena[self.span(i)] == token {
                return Some(i);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Make the arena's tail — what was appended since the last token —
    /// the next token; returns its number.
    fn push_tail(&mut self, hash: u64) -> usize {
        let i = self.entries.len();
        self.entries.push(Entry {
            end: self.arena.len(),
            hash,
        });
        if self.slots.is_empty() {
            if self.entries.len() > SCAN_MAX {
                let keep = self.slots.capacity().clamp(TABLE_MIN, TABLE_KEEP);
                self.rebuild(keep.next_power_of_two());
            }
        } else if 2 * self.entries.len() > self.slots.len() {
            self.rebuild(2 * self.slots.len());
        } else {
            self.place(i);
        }
        i
    }

    fn rebuild(&mut self, slots: usize) {
        self.slots.clear();
        self.slots.resize(slots, 0);
        for i in 0..self.entries.len() {
            self.place(i);
        }
    }

    fn place(&mut self, i: usize) {
        let mask = self.slots.len() - 1;
        let mut slot = self.entries[i].hash as usize & mask;
        while self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = u32::try_from(i + 1).expect("a token table holds under 2^32 tokens");
    }
}

/// One record's tokens: a [`TokenTable`] of them in first-occurrence order.
/// Cleared and refilled by [`Tokenizer::tokenize_into`]; the arena, the
/// entries and the index keep their capacity from record to record.
///
/// A tokenizer appends a candidate token to the arena's tail and commits
/// it: the tail is hashed once and looked up among the record's tokens. A
/// duplicate is truncated away (`Collapse`) or gets `#n` appended and is
/// hashed and kept as a token of its own (`Number`). Every token of the
/// buffer is distinct, so all of them are in the table: a numbered token
/// has a `#` that no cleaned word has, and is longer than a raw q-gram.
#[derive(Debug, Default)]
pub struct TokenBuf {
    table: TokenTable,
    /// Per token: occurrences of this raw token so far; 0 for a numbered
    /// duplicate (`the#2`).
    counts: Vec<u32>,
    /// The q-gram tokenizer's cleaned text, kept here for its capacity.
    cleaned: String,
}

impl TokenBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the record had no tokens.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The tokens, in first-occurrence order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.table.iter()
    }

    /// The tokens with the hashes the buffer took of them, in
    /// first-occurrence order.
    pub fn hashed(&self) -> impl ExactSizeIterator<Item = HashedToken<'_>> + '_ {
        self.table.hashed()
    }

    fn clear(&mut self) {
        self.table.clear();
        self.counts.clear();
    }

    /// Append `word`, lower-cased, and commit it. An ASCII word lower-cases
    /// byte by byte. A word with any other character goes through
    /// `str::to_lowercase` whole, because that is context-sensitive (a
    /// word-final sigma) and can change a character's length (`İ`).
    fn push_word(&mut self, word: &str, ascii: bool, mode: DedupMode) {
        let arena = &mut self.table.arena;
        if ascii {
            let start = arena.len();
            arena.push_str(word);
            arena[start..].make_ascii_lowercase();
        } else {
            arena.push_str(&word.to_lowercase());
        }
        self.commit(mode);
    }

    /// Take the arena's tail — what the tokenizer wrote since the last
    /// token — as the next raw token.
    fn commit(&mut self, mode: DedupMode) {
        let table = &mut self.table;
        let start = table.end();
        let hash = token_hash(&table.arena.as_bytes()[start..]);
        let Some(first) = table.find_bytes(&table.arena.as_bytes()[start..], hash) else {
            table.push_tail(hash);
            self.counts.push(1);
            return;
        };
        match mode {
            DedupMode::Collapse => table.arena.truncate(start),
            DedupMode::Number => {
                self.counts[first] += 1;
                let n = self.counts[first];
                write!(table.arena, "#{n}").expect("writing to a String cannot fail");
                table.push_tail(token_hash(&table.arena.as_bytes()[start..]));
                self.counts.push(0);
            }
        }
    }
}

/// Word tokenizer: lower-cases, treats every non-alphanumeric character as a
/// separator, and deduplicates.
#[derive(Debug, Clone, Default)]
pub struct WordTokenizer {
    /// Duplicate handling.
    pub dedup: DedupMode,
}

impl WordTokenizer {
    /// A word tokenizer with collapse-duplicates semantics.
    pub fn new() -> Self {
        Self::default()
    }

    /// A word tokenizer that numbers duplicate occurrences.
    pub fn numbering() -> Self {
        WordTokenizer {
            dedup: DedupMode::Number,
        }
    }
}

impl Tokenizer for WordTokenizer {
    fn tokenize_into(&self, text: &str, buf: &mut TokenBuf) {
        buf.clear();
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // A word is a run of ASCII letters and digits, scanned byte by
            // byte, extended over any other alphanumeric character; it ends
            // at the first separator, which is `width` bytes long.
            let start = i;
            let mut ascii = true;
            let width = loop {
                while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                match bytes.get(i) {
                    None => break 0,
                    Some(b) if b.is_ascii() => break 1,
                    Some(_) => {
                        let c = text[i..].chars().next().expect("i is a char boundary");
                        if !c.is_alphanumeric() {
                            break c.len_utf8();
                        }
                        ascii = false;
                        i += c.len_utf8();
                    }
                }
            };
            if i > start {
                buf.push_word(&text[start..i], ascii, self.dedup);
            }
            i += width;
        }
    }
}

/// Q-gram tokenizer: sliding windows of `q` characters over the cleaned
/// string (lower-cased, runs of non-alphanumerics collapsed to one space),
/// padded with `q - 1` leading and trailing `#` characters so every original
/// character appears in exactly `q` grams.
#[derive(Debug, Clone)]
pub struct QGramTokenizer {
    /// Gram length (≥ 1).
    pub q: usize,
    /// Duplicate handling.
    pub dedup: DedupMode,
}

impl QGramTokenizer {
    /// A q-gram tokenizer with collapse-duplicates semantics.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        QGramTokenizer {
            q,
            dedup: DedupMode::Collapse,
        }
    }
}

impl Tokenizer for QGramTokenizer {
    fn tokenize_into(&self, text: &str, buf: &mut TokenBuf) {
        buf.clear();
        let mut cleaned = std::mem::take(&mut buf.cleaned);
        cleaned.clear();
        for _ in 0..self.q - 1 {
            cleaned.push('#');
        }
        let mut last_sep = false;
        let mut has_content = false;
        for c in text.chars() {
            if c.is_alphanumeric() {
                cleaned.extend(c.to_lowercase());
                last_sep = false;
                has_content = true;
            } else if !last_sep && !cleaned.is_empty() {
                cleaned.push(' ');
                last_sep = true;
            }
        }
        if has_content {
            while cleaned.ends_with(' ') {
                cleaned.pop();
            }
            for _ in 0..self.q - 1 {
                cleaned.push('#');
            }
            // Window `k` runs from the start of character `k` to the start
            // of character `k + q`, or to the end of the string.
            let starts = cleaned.char_indices().map(|(i, _)| i);
            let ends = starts.clone().skip(self.q).chain([cleaned.len()]);
            for (start, end) in starts.zip(ends) {
                buf.table.arena.push_str(&cleaned[start..end]);
                buf.commit(self.dedup);
            }
        }
        buf.cleaned = cleaned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokenizer_cleans_and_lowercases() {
        let t = WordTokenizer::new();
        assert_eq!(
            t.tokenize("I will call back."),
            vec!["i", "will", "call", "back"]
        );
        assert_eq!(t.tokenize("Smith, John   W."), vec!["smith", "john", "w"]);
        assert_eq!(t.tokenize(""), Vec::<String>::new());
        assert_eq!(t.tokenize("...!!!"), Vec::<String>::new());
    }

    #[test]
    fn word_tokenizer_collapses_duplicates() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("the cat the hat"), vec!["the", "cat", "hat"]);
    }

    #[test]
    fn word_tokenizer_numbers_duplicates() {
        let t = WordTokenizer::numbering();
        assert_eq!(
            t.tokenize("the cat the the"),
            vec!["the", "cat", "the#2", "the#3"]
        );
    }

    #[test]
    fn qgram_tokenizer_pads_and_slides() {
        let t = QGramTokenizer::new(2);
        let grams = t.tokenize("ab");
        assert_eq!(grams, vec!["#a", "ab", "b#"]);
    }

    #[test]
    fn qgram_tokenizer_handles_separators_and_case() {
        let t = QGramTokenizer::new(3);
        let grams = t.tokenize("A-b");
        // cleaned: "##a b##"
        assert!(grams.contains(&"##a".to_string()));
        assert!(grams.contains(&"a b".to_string()));
        assert!(grams.contains(&"b##".to_string()));
    }

    #[test]
    fn qgram_tokenizer_short_or_empty_input() {
        let t = QGramTokenizer::new(3);
        assert_eq!(t.tokenize(""), Vec::<String>::new());
        assert!(
            !t.tokenize("a").is_empty(),
            "padding makes one-char strings tokenizable"
        );
    }

    #[test]
    fn a_table_grown_through_several_doublings_agrees_with_a_hash_map() {
        use std::collections::HashMap;
        let mut table = TokenTable::new();
        let mut oracle = HashMap::new();
        // Tokens of every length around the hash's 8-byte words, past
        // the scan limit and through 128 → 256 → … → 2048 slots.
        let token = |i: usize| "ab·".repeat(i % 7) + &format!("{i}");
        for _ in 0..2 {
            for i in 0..900 {
                let t = token(i);
                let found = table.find(HashedToken::new(&t));
                assert_eq!(found, oracle.get(&t).copied(), "{t:?}");
                if found.is_none() {
                    let n = table.push(HashedToken::new(&t));
                    oracle.insert(t, n);
                }
            }
            assert_eq!(table.len(), oracle.len());
            assert!(table.slots.len() >= 2048, "{} slots", table.slots.len());
            for (t, &n) in &oracle {
                assert_eq!(table.get(n), Some(t.as_str()));
                assert_eq!(table.find(HashedToken::new(t)), Some(n));
            }
            for (n, (t, h)) in table.iter().zip(table.hashed()).enumerate() {
                assert_eq!(t, token(n));
                assert_eq!(h.as_str(), t);
                assert_eq!(h.hash, token_hash(t.as_bytes()));
            }
            assert_eq!(table.find(HashedToken::new("absent")), None);
            assert_eq!(table.get(table.len()), None);
            // A cleared table forgets every token and starts over.
            table.clear();
            oracle.clear();
            assert!(table.is_empty());
            assert_eq!(table.find(HashedToken::new(&token(3))), None);
        }
    }

    #[test]
    fn equal_bytes_hash_equal_and_the_length_is_hashed() {
        assert_eq!(token_hash(b"token"), token_hash(b"token"));
        let zeros = [0u8; 17];
        let hashes: std::collections::HashSet<u64> =
            (0..=17).map(|n| token_hash(&zeros[..n])).collect();
        assert_eq!(hashes.len(), 18, "zero runs of each length hash apart");
    }

    #[test]
    fn qgram_collapse_dedups() {
        let t = QGramTokenizer::new(1);
        assert_eq!(t.tokenize("aaa"), vec!["a"]);
    }
}
