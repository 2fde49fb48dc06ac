//! Brace-aware file model built on the token stream: line table,
//! `#[cfg(test)]` ranges, and `lint:allow(...)` markers.
//!
//! Everything here works on *code token indices* (comments filtered
//! out) so the rules never see comment or string interior text as code.

use super::lexer::{self, Span, TokKind, Token};

/// A `lint:allow(<name>)` marker found in a comment token.
#[derive(Clone, Debug)]
pub struct AllowMarker {
    /// 1-based line the marker sits on.
    pub line: usize,
    /// The rule name inside the parentheses.
    pub name: String,
    /// Byte span of the name, for unknown-rule findings.
    pub span: Span,
}

/// Token-level model of one source file.
pub struct FileModel<'s> {
    /// The file's source text.
    pub src: &'s str,
    /// Code tokens only (comments stripped).
    pub code: Vec<Token>,
    /// Comment tokens, for marker scanning.
    pub comments: Vec<Token>,
    /// Byte offsets of line starts, for byte → line/col mapping.
    line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// All `lint:allow` markers (valid and unknown alike).
    pub allows: Vec<AllowMarker>,
}

impl<'s> FileModel<'s> {
    /// Lex and segment `src`.
    pub fn new(src: &'s str) -> FileModel<'s> {
        let tokens = lexer::lex(src);
        let mut code = Vec::with_capacity(tokens.len());
        let mut comments = Vec::new();
        for t in tokens {
            if t.is_comment() {
                comments.push(t);
            } else {
                code.push(t);
            }
        }
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut m = FileModel {
            src,
            code,
            comments,
            line_starts,
            test_ranges: Vec::new(),
            allows: Vec::new(),
        };
        m.find_test_ranges();
        m.find_allows();
        m
    }

    /// The text of code token `i`.
    pub fn text(&self, i: usize) -> &'s str {
        self.code[i].text(self.src)
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, byte: usize) -> usize {
        match self.line_starts.binary_search(&byte) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// 1-based column (byte-based) of a byte offset.
    pub fn col_of(&self, byte: usize) -> usize {
        let line = self.line_of(byte);
        byte - self.line_starts[line - 1] + 1
    }

    /// Is this byte inside a `#[cfg(test)]` item?
    pub fn in_test(&self, byte: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// Is there a `lint:allow(<name>)` marker on `line` or the line
    /// directly above it?
    pub fn allow_on(&self, line: usize, name: &str) -> bool {
        self.allows
            .iter()
            .any(|a| a.name == name && (a.line == line || a.line + 1 == line))
    }

    /// Code-token index of the matching close for the open delimiter at
    /// `open` (`{`/`}`, `(`/`)`, `[`/`]`). Returns `None` when the file
    /// ends unbalanced.
    pub fn matching_close(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.code[open].kind {
            TokKind::Punct(b'{') => (b'{', b'}'),
            TokKind::Punct(b'(') => (b'(', b')'),
            TokKind::Punct(b'[') => (b'[', b']'),
            _ => return None,
        };
        let mut depth = 0usize;
        for i in open..self.code.len() {
            match self.code[i].kind {
                TokKind::Punct(x) if x == o => depth += 1,
                TokKind::Punct(x) if x == c => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// `#[cfg(test)]` attribute → mark through the following item.
    fn find_test_ranges(&mut self) {
        let n = self.code.len();
        let mut i = 0;
        while i < n {
            if !self.code[i].is_punct(b'#') || i + 1 >= n || !self.code[i + 1].is_punct(b'[') {
                i += 1;
                continue;
            }
            let Some(close) = self.matching_close(i + 1) else {
                break;
            };
            let has_cfg_test = {
                let mut cfg = false;
                let mut test = false;
                for j in i + 2..close {
                    if self.code[j].kind == TokKind::Ident {
                        match self.text(j) {
                            "cfg" => cfg = true,
                            "test" => test = true,
                            _ => {}
                        }
                    }
                }
                cfg && test
            };
            if !has_cfg_test {
                i = close + 1;
                continue;
            }
            // Mark from the `#` through the end of the following item:
            // the first `;` before any `{`, else the matching `}` of the
            // first `{`.
            let start_byte = self.code[i].span.start;
            let mut j = close + 1;
            let mut end_byte = self.src.len();
            while j < n {
                if self.code[j].is_punct(b';') {
                    end_byte = self.code[j].span.end;
                    break;
                }
                if self.code[j].is_punct(b'{') {
                    if let Some(c) = self.matching_close(j) {
                        end_byte = self.code[c].span.end;
                        j = c;
                    }
                    break;
                }
                j += 1;
            }
            self.test_ranges.push((start_byte, end_byte));
            i = j + 1;
        }
    }

    /// Scan comment tokens for `lint:allow(<name>)` markers. Names are
    /// runs of `[A-Za-z0-9_-]`; anything else between the parens (for
    /// example the `<rule>` placeholder in docs) is not a marker.
    fn find_allows(&mut self) {
        const NEEDLE: &str = "lint:allow(";
        for c in &self.comments {
            let text = c.text(self.src);
            let mut from = 0;
            while let Some(pos) = text[from..].find(NEEDLE) {
                let name_start = from + pos + NEEDLE.len();
                let rest = &text[name_start..];
                let name_len = rest
                    .bytes()
                    .take_while(|b| b.is_ascii_alphanumeric() || *b == b'-' || *b == b'_')
                    .count();
                if name_len > 0 && rest.as_bytes().get(name_len) == Some(&b')') {
                    let abs = c.span.start + name_start;
                    self.allows.push(AllowMarker {
                        line: self.line_of(abs),
                        name: rest[..name_len].to_string(),
                        span: Span {
                            start: abs,
                            end: abs + name_len,
                        },
                    });
                }
                from = name_start;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_mapping() {
        let m = FileModel::new("ab\ncd\nef");
        assert_eq!(m.line_of(0), 1);
        assert_eq!(m.line_of(3), 2);
        assert_eq!(m.col_of(4), 2);
    }

    #[test]
    fn cfg_test_range_covers_mod() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let m = FileModel::new(src);
        assert_eq!(m.test_ranges.len(), 1);
        let unwrap_pos = src.find("fn t").expect("present");
        assert!(m.in_test(unwrap_pos));
        assert!(!m.in_test(src.find("fn lib").expect("present")));
        assert!(!m.in_test(src.find("fn after").expect("present")));
    }

    #[test]
    fn allow_markers_parse_from_comments_only() {
        let src = "let a = 1; // lint:allow(unwrap): reason\nlet s = \"lint:allow(unwrap)\";\n// docs say lint:allow(<rule>)\n";
        let m = FileModel::new(src);
        assert_eq!(m.allows.len(), 1);
        assert_eq!(m.allows[0].name, "unwrap");
        assert_eq!(m.allows[0].line, 1);
        assert!(m.allow_on(1, "unwrap"));
        assert!(m.allow_on(2, "unwrap"));
        assert!(!m.allow_on(3, "unwrap"));
    }
}
