//! ASCII table rendering for experiment output, with paper-reference
//! columns so each regenerated figure/table can be eyeballed against the
//! original.

use std::fmt::Write as _;

/// A simple right-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "== {} ==", self.title);
        let line = |s: &mut String, cells: &[String]| {
            let mut first = true;
            for (c, w) in cells.iter().zip(&widths) {
                if !first {
                    let _ = write!(s, "  ");
                }
                let _ = write!(s, "{c:>w$}", w = w);
                first = false;
            }
            let _ = writeln!(s);
        };
        line(&mut s, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(s, "{}", "-".repeat(total));
        for r in &self.rows {
            line(&mut s, r);
        }
        s
    }
}

/// A minimal JSON object writer for benchmark artifacts (`BENCH_*.json`) —
/// no external serialization dependency.
#[derive(Debug, Clone)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\n  \"{k}\": ");
    }

    /// Adds a string field (escapes quotes and backslashes).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let escaped: String = v
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                '\n' => vec!['\\', 'n'],
                _ => vec![c],
            })
            .collect();
        let _ = write!(self.buf, "\"{escaped}\"");
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field with 6 significant decimals.
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v:.6}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a nested object field.
    pub fn obj(mut self, k: &str, v: JsonObj) -> Self {
        self.key(k);
        // Indent the nested object's lines one level.
        let nested = v.finish().replace('\n', "\n  ");
        self.buf.push_str(&nested);
        self
    }

    /// Adds a nested array field.
    pub fn arr(mut self, k: &str, v: JsonArr) -> Self {
        self.key(k);
        let nested = v.finish().replace('\n', "\n  ");
        self.buf.push_str(&nested);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push_str("\n}");
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

/// A minimal JSON array writer of objects, pairing with [`JsonObj`] (for
/// campaign-cell lists in benchmark artifacts).
#[derive(Debug, Clone)]
pub struct JsonArr {
    buf: String,
    first: bool,
}

impl JsonArr {
    /// Starts an empty array.
    pub fn new() -> Self {
        JsonArr {
            buf: String::from("["),
            first: true,
        }
    }

    /// Appends an object element.
    pub fn obj(mut self, v: JsonObj) -> Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str("\n  ");
        let nested = v.finish().replace('\n', "\n  ");
        self.buf.push_str(&nested);
        self
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(mut self) -> String {
        if self.first {
            self.buf.push(']');
        } else {
            self.buf.push_str("\n]");
        }
        self.buf
    }
}

impl Default for JsonArr {
    fn default() -> Self {
        JsonArr::new()
    }
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Formats a plain float with the given decimals.
pub fn num(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let out = t.render();
        assert!(out.contains("== demo =="));
        assert!(out.contains("longer"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn json_arr_renders_elements() {
        assert_eq!(JsonArr::new().finish(), "[]");
        let arr = JsonArr::new()
            .obj(JsonObj::new().int("a", 1))
            .obj(JsonObj::new().int("a", 2));
        let out = JsonObj::new().arr("cells", arr).finish();
        assert!(out.contains("\"cells\": ["));
        assert!(out.contains("\"a\": 1"));
        assert!(out.contains("\"a\": 2"));
        // Balanced brackets/braces.
        assert_eq!(out.matches('[').count(), out.matches(']').count());
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn json_obj_renders_nested_fields() {
        let inner = JsonObj::new().num("wall_s", 1.25).int("cells", 3);
        let out = JsonObj::new()
            .str("schema", "demo \"v1\"")
            .bool("ok", true)
            .obj("serial", inner)
            .finish();
        assert!(out.starts_with('{') && out.ends_with('}'));
        assert!(out.contains("\"schema\": \"demo \\\"v1\\\"\""));
        assert!(out.contains("\"ok\": true"));
        assert!(out.contains("\"wall_s\": 1.250000"));
        assert!(out.contains("\"cells\": 3"));
    }
}
