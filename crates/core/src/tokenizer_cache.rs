//! A lazily-built tokenizer holder usable inside `Clone`-able mappers.

use setsim::{TokenBuf, Tokenizer};

use crate::config::TokenizerKind;

/// Holds a boxed tokenizer built on first use and the token buffer it fills
/// for every record; cloning resets both so mapper prototypes stay cheaply
/// cloneable.
pub struct CachedTokenizer {
    kind: TokenizerKind,
    built: Option<Box<dyn Tokenizer + Send + Sync>>,
    buf: TokenBuf,
}

impl CachedTokenizer {
    /// Create an empty cache for the given tokenizer kind.
    pub fn new(kind: TokenizerKind) -> Self {
        CachedTokenizer {
            kind,
            built: None,
            buf: TokenBuf::new(),
        }
    }

    /// Tokenize using the cached instance. The tokens are borrowed from the
    /// holder's buffer, which the next call overwrites.
    pub fn tokenize(&mut self, text: &str) -> &TokenBuf {
        self.built
            .get_or_insert_with(|| self.kind.build())
            .tokenize_into(text, &mut self.buf);
        &self.buf
    }
}

impl Clone for CachedTokenizer {
    fn clone(&self) -> Self {
        CachedTokenizer::new(self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_and_clones() {
        let mut c = CachedTokenizer::new(TokenizerKind::Word);
        assert_eq!(c.tokenize("A b!").iter().collect::<Vec<_>>(), ["a", "b"]);
        let mut c2 = c.clone();
        assert_eq!(c2.tokenize("x").iter().collect::<Vec<_>>(), ["x"]);
    }
}
