//! The global token order and token interning.
//!
//! Stage 1 of the paper produces the list of tokens ordered by increasing
//! frequency; stage 2 reorders every record's tokens by that order so the
//! *prefix* of a record holds its rarest tokens. [`TokenOrder`] captures the
//! ordering and interns tokens as dense `u32` ranks: rank 0 is the rarest
//! token, so a record projected onto ranks and sorted ascending is exactly
//! the frequency-ordered token set, and its prefix is a slice of its head.

use crate::tokenize::{HashedToken, TokenBuf, TokenTable};

/// A token's rank in the global frequency order (0 = least frequent).
pub type TokenRank = u32;

/// The global token ordering produced by stage 1: one [`TokenTable`] whose
/// entry number is the rank, so each token is stored once.
#[derive(Debug, Clone, Default)]
pub struct TokenOrder {
    table: TokenTable,
}

impl TokenOrder {
    /// Build from tokens listed in increasing frequency order (stage 1's
    /// output format). Duplicate tokens are rejected.
    pub fn from_ordered_tokens<I, S>(ordered: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut table = TokenTable::new();
        for tok in ordered {
            let tok = HashedToken::new(tok.as_ref());
            TokenRank::try_from(table.len()).map_err(|_| "too many tokens".to_string())?;
            if table.find(tok).is_some() {
                return Err(format!("duplicate token in ordering: {}", tok.as_str()));
            }
            table.push(tok);
        }
        Ok(TokenOrder { table })
    }

    /// Build by counting token frequencies over a corpus of token lists and
    /// sorting ascending by frequency (ties broken lexicographically, so the
    /// order is deterministic — the single-reducer sort in BTO does the
    /// same).
    pub fn from_corpus<'a, I>(corpus: I) -> Self
    where
        I: IntoIterator<Item = &'a Vec<String>>,
    {
        let mut seen = TokenTable::new();
        let mut freq: Vec<u64> = Vec::new();
        for rec in corpus {
            for tok in rec {
                let tok = HashedToken::new(tok);
                match seen.find(tok) {
                    Some(i) => freq[i] += 1,
                    None => {
                        seen.push(tok);
                        freq.push(1);
                    }
                }
            }
        }
        let mut order: Vec<(u64, HashedToken<'_>)> = freq.into_iter().zip(seen.hashed()).collect();
        order.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.as_str().cmp(b.1.as_str())));
        let mut table = TokenTable::new();
        for (_, tok) in order {
            table.push(tok);
        }
        TokenOrder { table }
    }

    /// Number of known tokens.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no tokens are known.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Rank of a token, if known.
    pub fn rank(&self, token: &str) -> Option<TokenRank> {
        self.rank_of(HashedToken::new(token))
    }

    fn rank_of(&self, token: HashedToken<'_>) -> Option<TokenRank> {
        // Every entry number fits: a table numbers its entries in `u32`.
        self.table.find(token).map(|i| i as TokenRank)
    }

    /// Token with the given rank.
    pub fn token(&self, rank: TokenRank) -> Option<&str> {
        self.table.get(rank as usize)
    }

    /// The full ordering, rarest first.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.table.iter()
    }

    /// Project a record's tokens onto sorted ranks. Unknown tokens are
    /// dropped — exactly what the paper's R-S stage 2 does with S-tokens
    /// absent from R's token list ("we discard the tokens that do not appear
    /// in the token list, since they cannot generate candidate pairs").
    /// Returns a strictly increasing rank vector.
    pub fn project(&self, tokens: &[String]) -> Vec<TokenRank> {
        let mut ranks = Vec::new();
        self.project_into(tokens.iter().map(String::as_str), &mut ranks);
        ranks
    }

    /// [`TokenOrder::project`] from borrowed tokens into a vector the
    /// caller keeps: `ranks` is cleared, then filled.
    pub fn project_into<'a>(
        &self,
        tokens: impl IntoIterator<Item = &'a str>,
        ranks: &mut Vec<TokenRank>,
    ) {
        self.project_hashed(tokens.into_iter().map(HashedToken::new), ranks);
    }

    /// [`TokenOrder::project_into`] of a tokenized record, looked up by the
    /// hashes the buffer already took: no token is hashed again.
    pub fn project_buf(&self, buf: &TokenBuf, ranks: &mut Vec<TokenRank>) {
        self.project_hashed(buf.hashed(), ranks);
    }

    fn project_hashed<'a>(
        &self,
        tokens: impl Iterator<Item = HashedToken<'a>>,
        ranks: &mut Vec<TokenRank>,
    ) {
        ranks.clear();
        ranks.reserve(tokens.size_hint().0);
        ranks.extend(tokens.filter_map(|t| self.rank_of(t)));
        ranks.sort_unstable();
        ranks.dedup();
    }

    /// Approximate heap size in bytes, for broadcast memory accounting:
    /// each token's bytes once, its entry (end offset and hash) and the
    /// index slots of the one table.
    pub fn approx_bytes(&self) -> u64 {
        self.table.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn from_corpus_orders_by_ascending_frequency() {
        let corpus = vec![rec(&["a", "b", "c"]), rec(&["b", "c"]), rec(&["c"])];
        let order = TokenOrder::from_corpus(&corpus);
        // a appears once, b twice, c three times.
        assert_eq!(order.rank("a"), Some(0));
        assert_eq!(order.rank("b"), Some(1));
        assert_eq!(order.rank("c"), Some(2));
        assert_eq!(order.token(0), Some("a"));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn ties_break_lexicographically() {
        let corpus = vec![rec(&["zeta", "alpha"])];
        let order = TokenOrder::from_corpus(&corpus);
        assert_eq!(order.rank("alpha"), Some(0));
        assert_eq!(order.rank("zeta"), Some(1));
    }

    #[test]
    fn project_sorts_and_drops_unknown() {
        let order = TokenOrder::from_ordered_tokens(["rare", "mid", "common"]).unwrap();
        let ranks = order.project(&rec(&["common", "unknown", "rare"]));
        assert_eq!(ranks, vec![0, 2]);
        assert_eq!(order.project(&[]), Vec::<TokenRank>::new());
    }

    #[test]
    fn project_dedups_ranks() {
        let order = TokenOrder::from_ordered_tokens(["x", "y"]).unwrap();
        let ranks = order.project(&rec(&["y", "x", "y"]));
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn duplicate_ordering_rejected() {
        assert!(TokenOrder::from_ordered_tokens(["a", "a"]).is_err());
        // Past the scan limit too, where the index finds the duplicate.
        let many: Vec<String> = (0..100).map(|i| format!("t{i}")).collect();
        let with_dup = many.iter().chain([&many[42]]);
        let err = TokenOrder::from_ordered_tokens(with_dup).unwrap_err();
        assert!(err.contains("t42"), "{err}");
        assert_eq!(TokenOrder::from_ordered_tokens(&many).unwrap().len(), 100);
    }

    #[test]
    fn approx_bytes_positive() {
        let order = TokenOrder::from_ordered_tokens(["a", "bb"]).unwrap();
        assert!(order.approx_bytes() > 0);
    }
}
