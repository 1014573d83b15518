//! Single-node set-similarity join kernels.
//!
//! This crate implements everything the SIGMOD 2010 paper's stage-2 kernels
//! need from the single-node set-similarity-join literature:
//!
//! * **Tokenization** — word and q-gram tokenizers with in-algorithm
//!   cleaning ([`tokenize`]);
//! * **the global token order** — frequency-ascending interning of tokens
//!   into dense ranks ([`dict`]);
//! * **similarity measures** — Jaccard, cosine, Dice, overlap, with all the
//!   filter bounds (length, prefix, index-prefix, α) derived from a
//!   [`Threshold`] ([`measure`]);
//! * **filters** — bitmap ([`bitmap`]) and positional filters inside the
//!   kernel, suffix filter ([`suffix`]), early-terminating verification
//!   ([`verify`]);
//! * **kernels** — streaming [`PpjoinIndex`] (PPJoin / PPJoin+, the paper's
//!   PK kernel), the All-Pairs baseline ([`allpairs`]), nested-loop and
//!   indexed R-S kernels ([`rs`]), and the naive oracle ([`naive`]).
//!
//! # Example
//!
//! ```
//! use setsim::{FilterConfig, Threshold, TokenOrder, Tokenizer, WordTokenizer};
//!
//! let tok = WordTokenizer::new();
//! let strings = ["I will call back", "I will call you soon", "something else"];
//! let token_lists: Vec<Vec<String>> = strings.iter().map(|s| tok.tokenize(s)).collect();
//! let order = TokenOrder::from_corpus(&token_lists);
//! let records: Vec<(u64, Vec<u32>)> = token_lists
//!     .iter()
//!     .enumerate()
//!     .map(|(i, t)| (i as u64, order.project(t)))
//!     .collect();
//!
//! let t = Threshold::jaccard(0.5);
//! let pairs = setsim::ppjoin::self_join(&records, &t, FilterConfig::ppjoin_plus());
//! assert_eq!(pairs.len(), 1);
//! assert_eq!((pairs[0].0, pairs[0].1), (0, 1)); // the two "I will call ..." strings
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allpairs;
pub mod bitmap;
pub mod dict;
pub mod measure;
pub mod naive;
pub mod oracle;
pub mod ppjoin;
pub mod rs;
pub mod suffix;
pub mod tokenize;
pub mod verify;

pub use dict::{TokenOrder, TokenRank};
pub use measure::{SimFunction, Threshold, TokenSet};
pub use naive::Record;
pub use ppjoin::{FilterConfig, Funnel, Match, PpjoinIndex};
pub use tokenize::{
    token_hash, DedupMode, HashedToken, QGramTokenizer, TokenBuf, TokenTable, Tokenizer,
    WordTokenizer,
};
pub use verify::{first_common, intersection_size, overlap_at_least, verify_pair};
