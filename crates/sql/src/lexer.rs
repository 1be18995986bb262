//! The SQL lexer.

use crate::SqlError;

/// A lexical token. Keywords are uppercased identifiers recognized by the
/// parser; the lexer keeps them as `Ident` with normalized case.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword, upper-cased for case-insensitive matching,
    /// with the original spelling preserved.
    Ident {
        /// Upper-cased form used for keyword matching.
        upper: String,
        /// The original spelling (used for catalog lookups).
        raw: String,
    },
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (single-quoted; `''` escapes a quote).
    Str(String),
    /// One of `= <> < <= > >= + - * / ( ) , . %`.
    Symbol(&'static str),
}

impl Token {
    /// True if this token is the given keyword (case-insensitive).
    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident { upper, .. } if upper == kw)
    }

    /// True if this token is the given symbol.
    pub(crate) fn is_sym(&self, s: &str) -> bool {
        matches!(self, Token::Symbol(sym) if *sym == s)
    }
}

/// Tokenizes a SQL string.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let raw = input[start..i].to_string();
                out.push(Token::Ident {
                    upper: raw.to_ascii_uppercase(),
                    raw,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len()
                    && bytes[i] == b'.'
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                if is_float {
                    out.push(Token::Float(text.parse().map_err(|_| SqlError::Lex {
                        position: start,
                        message: format!("bad float literal {text:?}"),
                    })?));
                } else {
                    out.push(Token::Int(text.parse().map_err(|_| SqlError::Lex {
                        position: start,
                        message: format!("bad integer literal {text:?}"),
                    })?));
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(SqlError::Lex {
                            position: start,
                            message: "unterminated string literal".to_string(),
                        });
                    }
                    if bytes[i] == b'\'' {
                        // Doubled quote = escaped quote.
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = input[i..].chars().next().map_or(1, char::len_utf8);
                    s.push_str(&input[i..i + ch_len]);
                    i += ch_len;
                }
                out.push(Token::Str(s));
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Symbol("<="));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Token::Symbol("<>"));
                    i += 2;
                } else {
                    out.push(Token::Symbol("<"));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Symbol(">="));
                    i += 2;
                } else {
                    out.push(Token::Symbol(">"));
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Symbol("<>"));
                    i += 2;
                } else {
                    return Err(SqlError::Lex {
                        position: i,
                        message: "unexpected '!'".to_string(),
                    });
                }
            }
            '=' => {
                out.push(Token::Symbol("="));
                i += 1;
            }
            '+' => {
                out.push(Token::Symbol("+"));
                i += 1;
            }
            '-' => {
                // `--` starts a comment to end of line.
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    out.push(Token::Symbol("-"));
                    i += 1;
                }
            }
            '*' => {
                out.push(Token::Symbol("*"));
                i += 1;
            }
            '/' => {
                out.push(Token::Symbol("/"));
                i += 1;
            }
            '(' => {
                out.push(Token::Symbol("("));
                i += 1;
            }
            ')' => {
                out.push(Token::Symbol(")"));
                i += 1;
            }
            ',' => {
                out.push(Token::Symbol(","));
                i += 1;
            }
            '.' => {
                out.push(Token::Symbol("."));
                i += 1;
            }
            ';' => {
                // Statement terminator: ignore.
                i += 1;
            }
            other => {
                return Err(SqlError::Lex {
                    position: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let toks = tokenize("SELECT a, b FROM t WHERE x >= 1.5 AND y <> 'it''s'").unwrap();
        assert!(toks[0].is_kw("SELECT"));
        assert!(toks[2].is_sym(","));
        assert!(toks.iter().any(|t| t.is_sym(">=")));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::Float(f) if *f == 1.5)));
        assert!(toks
            .iter()
            .any(|t| matches!(t, Token::Str(s) if s == "it's")));
    }

    #[test]
    fn case_insensitive_keywords_preserve_raw() {
        let toks = tokenize("select MyTable").unwrap();
        assert!(toks[0].is_kw("SELECT"));
        match &toks[1] {
            Token::Ident { raw, upper } => {
                assert_eq!(raw, "MyTable");
                assert_eq!(upper, "MYTABLE");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_semicolons_are_skipped() {
        let toks = tokenize("SELECT 1 -- trailing comment\n, 2;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident {
                    upper: "SELECT".into(),
                    raw: "SELECT".into()
                },
                Token::Int(1),
                Token::Symbol(","),
                Token::Int(2),
            ]
        );
    }

    #[test]
    fn bang_equals_is_not_equals() {
        let toks = tokenize("a != b").unwrap();
        assert!(toks[1].is_sym("<>"));
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn errors_carry_positions() {
        let err = tokenize("SELECT @").unwrap_err();
        assert!(matches!(err, SqlError::Lex { position: 7, .. }));
        let err = tokenize("SELECT 'open").unwrap_err();
        assert!(matches!(err, SqlError::Lex { .. }));
    }

    #[test]
    fn negative_handled_as_minus_symbol() {
        let toks = tokenize("-5").unwrap();
        assert_eq!(toks, vec![Token::Symbol("-"), Token::Int(5)]);
    }
}
