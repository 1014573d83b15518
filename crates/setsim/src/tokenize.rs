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

/// One record's tokens, flat: the cleaned token bytes end to end in one
/// arena and a span per token. Cleared and refilled by
/// [`Tokenizer::tokenize_into`]; the arena, the spans and the duplicate
/// table keep their capacity from record to record.
///
/// Duplicates are found by comparing bytes: a scan of the spans while the
/// record has few tokens, an open-addressed table of span indices beyond
/// that. The table hashes with std's keyed hasher because tokens come from
/// outside the program.
#[derive(Debug, Default)]
pub struct TokenBuf {
    arena: String,
    spans: Vec<Span>,
    /// Span index + 1 per slot, 0 for an empty slot; a power of two long.
    /// In use only while `spans` is longer than [`SCAN_MAX`].
    table: Vec<usize>,
    /// Raw tokens in `table`.
    table_len: usize,
    hasher: RandomState,
    /// The q-gram tokenizer's cleaned text, kept here for its capacity.
    cleaned: String,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    /// Occurrences of this raw token so far; 0 marks a numbered duplicate
    /// (`the#2`), which later tokens are never compared against.
    count: u32,
}

/// Longest span list searched by scanning.
const SCAN_MAX: usize = 16;
/// Slots in the smallest duplicate table, and in the largest one the next
/// record starts from (both powers of two).
const TABLE_MIN: usize = 128;
const TABLE_KEEP: usize = 4096;

impl TokenBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the record had no tokens.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The tokens, in first-occurrence order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.spans.iter().map(|s| &self.arena[s.start..s.end])
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.spans.clear();
        self.table_len = 0;
    }

    fn bytes(&self, span: Span) -> &[u8] {
        &self.arena.as_bytes()[span.start..span.end]
    }

    /// Take the arena's tail — what the tokenizer wrote since the last
    /// token — as the next raw token.
    fn commit(&mut self, mode: DedupMode) {
        let start = self.spans.last().map_or(0, |s| s.end);
        let token = &self.arena.as_bytes()[start..];
        let Some(first) = self.find(token) else {
            self.spans.push(Span {
                start,
                end: self.arena.len(),
                count: 1,
            });
            self.index_last();
            return;
        };
        match mode {
            DedupMode::Collapse => self.arena.truncate(start),
            DedupMode::Number => {
                self.spans[first].count += 1;
                let n = self.spans[first].count;
                write!(self.arena, "#{n}").expect("writing to a String cannot fail");
                self.spans.push(Span {
                    start,
                    end: self.arena.len(),
                    count: 0,
                });
                self.index_last();
            }
        }
    }

    /// Index of the raw token equal to `token`, if the record had one.
    fn find(&self, token: &[u8]) -> Option<usize> {
        if self.table_len == 0 {
            return self
                .spans
                .iter()
                .position(|&s| s.count > 0 && self.bytes(s) == token);
        }
        let mask = self.table.len() - 1;
        let mut slot = self.hasher.hash_one(token) as usize & mask;
        loop {
            let i = self.table[slot].checked_sub(1)?;
            if self.bytes(self.spans[i]) == token {
                return Some(i);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Keep the table in step with the span just pushed: build it when the
    /// span list outgrows scanning — as large as the last record needed, up
    /// to [`TABLE_KEEP`], so a corpus of long records sizes it once — and
    /// double it at half full.
    fn index_last(&mut self) {
        let last = self.spans.len() - 1;
        if self.table_len == 0 {
            if last >= SCAN_MAX {
                self.rebuild_table(self.table.len().clamp(TABLE_MIN, TABLE_KEEP));
            }
        } else if self.spans[last].count > 0 {
            if 2 * (self.table_len + 1) > self.table.len() {
                self.rebuild_table(2 * self.table.len());
            } else {
                self.insert(last);
            }
        }
    }

    fn rebuild_table(&mut self, slots: usize) {
        self.table.clear();
        self.table.resize(slots, 0);
        self.table_len = 0;
        for i in 0..self.spans.len() {
            if self.spans[i].count > 0 {
                self.insert(i);
            }
        }
    }

    fn insert(&mut self, i: usize) {
        let mask = self.table.len() - 1;
        let mut slot = self.hasher.hash_one(self.bytes(self.spans[i])) as usize & mask;
        while self.table[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = i + 1;
        self.table_len += 1;
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
        // An ASCII word lower-cases byte by byte. A word with any other
        // character goes through `str::to_lowercase` whole, because that is
        // context-sensitive (a word-final sigma) and can change a
        // character's length (`İ`).
        let mut push_word = |word: &str, ascii: bool| {
            if ascii {
                let start = buf.arena.len();
                buf.arena.push_str(word);
                buf.arena[start..].make_ascii_lowercase();
            } else {
                buf.arena.push_str(&word.to_lowercase());
            }
            buf.commit(self.dedup);
        };
        let bytes = text.as_bytes();
        // The word being scanned: where it starts, and whether it is ASCII
        // so far.
        let mut word: Option<(usize, bool)> = None;
        let mut i = 0;
        while i < bytes.len() {
            let (in_word, ascii, width) = if bytes[i].is_ascii() {
                (bytes[i].is_ascii_alphanumeric(), true, 1)
            } else {
                let c = text[i..].chars().next().expect("i is a char boundary");
                (c.is_alphanumeric(), false, c.len_utf8())
            };
            if in_word {
                let (_, all_ascii) = word.get_or_insert((i, true));
                *all_ascii &= ascii;
            } else if let Some((start, all_ascii)) = word.take() {
                push_word(&text[start..i], all_ascii);
            }
            i += width;
        }
        if let Some((start, all_ascii)) = word {
            push_word(&text[start..], all_ascii);
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
                buf.arena.push_str(&cleaned[start..end]);
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
    fn qgram_collapse_dedups() {
        let t = QGramTokenizer::new(1);
        assert_eq!(t.tokenize("aaa"), vec!["a"]);
    }
}
