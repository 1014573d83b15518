//! The global token order and token interning.
//!
//! Stage 1 of the paper produces the list of tokens ordered by increasing
//! frequency; stage 2 reorders every record's tokens by that order so the
//! *prefix* of a record holds its rarest tokens. [`TokenOrder`] captures the
//! ordering and interns tokens as dense `u32` ranks: rank 0 is the rarest
//! token, so a record projected onto ranks and sorted ascending is exactly
//! the frequency-ordered token set, and its prefix is a slice of its head.

use std::collections::HashMap;

/// A token's rank in the global frequency order (0 = least frequent).
pub type TokenRank = u32;

/// The global token ordering produced by stage 1.
#[derive(Debug, Clone, Default)]
pub struct TokenOrder {
    rank_of: HashMap<String, TokenRank>,
    tokens: Vec<String>,
}

impl TokenOrder {
    /// Build from tokens listed in increasing frequency order (stage 1's
    /// output format). Duplicate tokens are rejected.
    pub fn from_ordered_tokens<I, S>(ordered: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut rank_of = HashMap::new();
        let mut tokens = Vec::new();
        for (i, tok) in ordered.into_iter().enumerate() {
            let tok: String = tok.into();
            let rank = TokenRank::try_from(i).map_err(|_| "too many tokens".to_string())?;
            if rank_of.insert(tok.clone(), rank).is_some() {
                return Err(format!("duplicate token in ordering: {tok}"));
            }
            tokens.push(tok);
        }
        Ok(TokenOrder { rank_of, tokens })
    }

    /// Build by counting token frequencies over a corpus of token lists and
    /// sorting ascending by frequency (ties broken lexicographically, so the
    /// order is deterministic — the single-reducer sort in BTO does the
    /// same).
    pub fn from_corpus<'a, I>(corpus: I) -> Self
    where
        I: IntoIterator<Item = &'a Vec<String>>,
    {
        let mut freq: HashMap<&'a str, u64> = HashMap::new();
        for rec in corpus {
            for tok in rec {
                *freq.entry(tok.as_str()).or_insert(0) += 1;
            }
        }
        let mut pairs: Vec<(&str, u64)> = freq.into_iter().collect();
        pairs.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        Self::from_ordered_tokens(pairs.into_iter().map(|(t, _)| t.to_string()))
            .expect("counted tokens are distinct")
    }

    /// Number of known tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no tokens are known.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Rank of a token, if known.
    pub fn rank(&self, token: &str) -> Option<TokenRank> {
        self.rank_of.get(token).copied()
    }

    /// Token with the given rank.
    pub fn token(&self, rank: TokenRank) -> Option<&str> {
        self.tokens.get(rank as usize).map(String::as_str)
    }

    /// The full ordering, rarest first.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
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
        let tokens = tokens.into_iter();
        ranks.clear();
        ranks.reserve(tokens.size_hint().0);
        ranks.extend(tokens.filter_map(|t| self.rank(t)));
        ranks.sort_unstable();
        ranks.dedup();
    }

    /// Approximate heap size in bytes, for broadcast memory accounting.
    pub fn approx_bytes(&self) -> u64 {
        let strings: u64 = self.tokens.iter().map(|t| t.len() as u64 + 24).sum::<u64>();
        // Each token is stored twice (map key + vec) plus map overhead.
        strings * 2 + self.tokens.len() as u64 * 16
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
    }

    #[test]
    fn approx_bytes_positive() {
        let order = TokenOrder::from_ordered_tokens(["a", "bb"]).unwrap();
        assert!(order.approx_bytes() > 0);
    }
}
