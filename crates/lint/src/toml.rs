//! A minimal TOML-subset reader/writer for the lint's two data files.
//!
//! Supports exactly what `ORDERING_VERDICTS.toml` and `LINT_ALLOW.toml`
//! use: `[[table]]` array-of-tables headers, `key = "string"` (with `\"`
//! and `\\` escapes) and `key = integer` pairs, blank lines and `#`
//! comments. Anything else is a hard parse error — one file is
//! machine-written (the audit binary), the other short and hand-curated,
//! so strictness beats leniency.

use std::collections::BTreeMap;
use std::fmt;

/// A scalar value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// A non-negative integer.
    Int(u64),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Str(_) => None,
        }
    }
}

/// One `[[name]]` table: its keys plus the line its header sits on.
#[derive(Debug, Clone)]
pub struct Table {
    /// The array-of-tables name (`site`, `allow`).
    pub name: String,
    /// 1-based line of the `[[name]]` header.
    pub line: u32,
    /// Key/value pairs, insertion-ordered per file but stored sorted.
    pub entries: BTreeMap<String, Value>,
}

impl Table {
    /// String value for `key`, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.entries.get(key).and_then(Value::as_str)
    }

    /// Integer value for `key`, if present.
    pub fn get_int(&self, key: &str) -> Option<u64> {
        self.entries.get(key).and_then(Value::as_int)
    }
}

/// A parse failure with its 1-based line.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Offending line number.
    pub line: u32,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Parse a document into its array-of-tables entries.
pub fn parse(text: &str) -> Result<Vec<Table>, ParseError> {
    let mut tables: Vec<Table> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            tables.push(Table {
                name: inner.trim().to_string(),
                line: lineno,
                entries: BTreeMap::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError {
                line: lineno,
                msg: format!("expected `key = value` or `[[table]]`, got `{line}`"),
            });
        };
        let Some(table) = tables.last_mut() else {
            return Err(ParseError {
                line: lineno,
                msg: "key/value pair before any [[table]] header".to_string(),
            });
        };
        let key = key.trim().to_string();
        let value = parse_value(value.trim(), lineno)?;
        if table.entries.insert(key.clone(), value).is_some() {
            return Err(ParseError {
                line: lineno,
                msg: format!("duplicate key `{key}` in one table"),
            });
        }
    }
    Ok(tables)
}

/// Remove a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str, line: u32) -> Result<Value, ParseError> {
    if let Some(rest) = v.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(ParseError {
                line,
                msg: "unterminated string".to_string(),
            });
        };
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some(other) => {
                        return Err(ParseError {
                            line,
                            msg: format!("unsupported escape `\\{other}`"),
                        })
                    }
                    None => {
                        return Err(ParseError {
                            line,
                            msg: "dangling escape".to_string(),
                        })
                    }
                }
            } else if c == '"' {
                return Err(ParseError {
                    line,
                    msg: "unescaped quote inside string".to_string(),
                });
            } else {
                out.push(c);
            }
        }
        return Ok(Value::Str(out));
    }
    match v.parse::<u64>() {
        Ok(n) => Ok(Value::Int(n)),
        Err(_) => Err(ParseError {
            line,
            msg: format!("expected quoted string or integer, got `{v}`"),
        }),
    }
}

/// Quote a string for emission.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_tables() {
        let doc = "# header\n[[site]]\nfile = \"a/b.rs\" # trailing\ncount = 3\nwhy = \"has # inside\"\n\n[[site]]\nfile = \"c.rs\"\n";
        let tables = parse(doc).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].get_str("file"), Some("a/b.rs"));
        assert_eq!(tables[0].get_int("count"), Some(3));
        assert_eq!(tables[0].get_str("why"), Some("has # inside"));
        assert_eq!(tables[1].line, 7);
    }

    #[test]
    fn escapes_round_trip() {
        let doc = format!("[[x]]\nwhy = {}\n", quote("a \"quoted\" \\ thing"));
        let tables = parse(&doc).unwrap();
        assert_eq!(tables[0].get_str("why"), Some("a \"quoted\" \\ thing"));
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse("[[x]]\nnot a pair\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse("key = \"before table\"\n").is_err());
        assert!(parse("[[x]]\nk = unquoted\n").is_err());
    }
}
