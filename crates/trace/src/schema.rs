//! A small line-oriented schema language and validator for trace JSONL.
//!
//! The checked-in schema (`schema/trace-jsonl.schema`) is intentionally
//! simple — CI needs "did the exporter emit what it promised", not a full
//! JSON-Schema engine. Format:
//!
//! ```text
//! # comment
//! version 2           — the meta line's schema_version must equal this
//! first meta          — the first line must be a record of this name
//! last end            — the last line must be a record of this name
//! record meta         — begin a record block, matched on the "type" field
//! require ident str   — required field and its type (num/str/bool/arr/obj)
//! ```
//!
//! Records may carry extra fields beyond the required ones (events add
//! kind-specific payloads), but a line whose `type` names no record, a
//! missing required field, or a type mismatch all fail validation.

use pagesim_json::{parse, JsonValue};

/// One record block: a name and its required `(field, type)` pairs.
#[derive(Clone, Debug)]
pub struct RecordSpec {
    /// Record name, matched against each line's `type` field.
    pub name: String,
    /// Required fields and their expected type tags.
    pub required: Vec<(String, String)>,
}

/// A parsed schema.
#[derive(Clone, Debug)]
pub struct Schema {
    /// Expected `schema_version` on the first record, if constrained.
    /// Makes a record-vocabulary change a loud failure instead of lines
    /// silently skipping validation as "unknown extra fields".
    pub version: Option<u64>,
    /// Record the first line must be, if constrained.
    pub first: Option<String>,
    /// Record the last line must be, if constrained.
    pub last: Option<String>,
    /// All record blocks, in declaration order.
    pub records: Vec<RecordSpec>,
}

const TYPE_TAGS: [&str; 5] = ["num", "str", "bool", "arr", "obj"];

impl Schema {
    /// Parses the schema text. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let mut schema = Schema {
            version: None,
            first: None,
            last: None,
            records: Vec::new(),
        };
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let (Some(directive), Some(arg)) = (words.next(), words.next()) else {
                return Err(format!("schema line {lineno}: expected directive and argument"));
            };
            match directive {
                "version" => match arg.parse::<u64>() {
                    Ok(v) => schema.version = Some(v),
                    Err(_) => {
                        return Err(format!(
                            "schema line {lineno}: version needs an integer, got '{arg}'"
                        ));
                    }
                },
                "first" => schema.first = Some(arg.to_owned()),
                "last" => schema.last = Some(arg.to_owned()),
                "record" => schema.records.push(RecordSpec {
                    name: arg.to_owned(),
                    required: Vec::new(),
                }),
                "require" => {
                    let Some(ty) = words.next() else {
                        return Err(format!("schema line {lineno}: require needs field and type"));
                    };
                    if !TYPE_TAGS.contains(&ty) {
                        return Err(format!("schema line {lineno}: unknown type '{ty}'"));
                    }
                    let Some(rec) = schema.records.last_mut() else {
                        return Err(format!("schema line {lineno}: require outside a record"));
                    };
                    rec.required.push((arg.to_owned(), ty.to_owned()));
                }
                other => {
                    return Err(format!("schema line {lineno}: unknown directive '{other}'"));
                }
            }
            if words.next().is_some() {
                return Err(format!("schema line {lineno}: trailing tokens"));
            }
        }
        Ok(schema)
    }

    fn record(&self, name: &str) -> Option<&RecordSpec> {
        self.records.iter().find(|r| r.name == name)
    }
}

/// Validates JSONL text against a schema. Returns every problem found,
/// each prefixed with the 1-based line number; an empty list means valid.
pub fn validate_jsonl(schema: &Schema, jsonl: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        errors.push("line 0: trace is empty".to_owned());
        return errors;
    }
    let mut types = Vec::with_capacity(lines.len());
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let value = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {lineno}: invalid json: {e}"));
                types.push(String::new());
                continue;
            }
        };
        let Some(ty) = value.get("type").and_then(JsonValue::as_str) else {
            errors.push(format!("line {lineno}: missing string field 'type'"));
            types.push(String::new());
            continue;
        };
        types.push(ty.to_owned());
        if idx == 0 {
            if let Some(expect) = schema.version {
                let found = value.get("schema_version").and_then(JsonValue::as_u64);
                if found != Some(expect) {
                    errors.push(format!(
                        "line 1: schema_version must be {expect} (found {})",
                        found.map_or("none".to_owned(), |v| v.to_string())
                    ));
                }
            }
        }
        let Some(rec) = schema.record(ty) else {
            errors.push(format!("line {lineno}: unknown record type '{ty}'"));
            continue;
        };
        for (field, expect) in &rec.required {
            match value.get(field) {
                None => errors.push(format!(
                    "line {lineno}: record '{ty}' missing required field '{field}'"
                )),
                Some(v) if v.type_name() != expect => errors.push(format!(
                    "line {lineno}: field '{field}' is {}, expected {expect}",
                    v.type_name()
                )),
                Some(_) => {}
            }
        }
    }
    if let Some(first) = &schema.first {
        if types.first().map(String::as_str) != Some(first.as_str()) {
            errors.push(format!("line 1: first record must be '{first}'"));
        }
    }
    if let Some(last) = &schema.last {
        if types.last().map(String::as_str) != Some(last.as_str()) {
            errors.push(format!(
                "line {}: last record must be '{last}'",
                lines.len()
            ));
        }
    }
    errors
}

/// The schema shipped with the repo, used by the `trace-validate` binary
/// and the determinism test.
pub const BUILTIN_SCHEMA: &str = include_str!("../schema/trace-jsonl.schema");

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "\
# demo
first meta
last end
record meta
require ident str
require seed num
record sample
require t_ns num
record end
require samples num
";

    #[test]
    fn parses_and_accepts_valid_lines() {
        let schema = Schema::parse(DEMO).expect("schema parses");
        let good = concat!(
            "{\"type\":\"meta\",\"ident\":\"x\",\"seed\":3}\n",
            "{\"type\":\"sample\",\"t_ns\":10,\"extra\":true}\n",
            "{\"type\":\"end\",\"samples\":1}\n",
        );
        assert_eq!(validate_jsonl(&schema, good), Vec::<String>::new());
    }

    #[test]
    fn reports_structure_violations() {
        let schema = Schema::parse(DEMO).expect("schema parses");
        let bad = concat!(
            "{\"type\":\"sample\",\"t_ns\":\"ten\"}\n",
            "{\"type\":\"mystery\"}\n",
            "{\"type\":\"meta\",\"seed\":1}\n",
        );
        let errors = validate_jsonl(&schema, bad);
        assert!(errors.iter().any(|e| e.contains("expected num")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("unknown record type")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("missing required field 'ident'")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("first record must be")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("last record must be")), "{errors:?}");
    }

    #[test]
    fn rejects_malformed_schema() {
        assert!(Schema::parse("require x num\n").is_err());
        assert!(Schema::parse("record a\nrequire x maybe\n").is_err());
        assert!(Schema::parse("frobnicate y\n").is_err());
        assert!(Schema::parse("version two\n").is_err());
    }

    #[test]
    fn version_mismatch_is_detected() {
        let versioned = format!("version 2\n{DEMO}");
        let schema = Schema::parse(&versioned).expect("schema parses");
        let right = concat!(
            "{\"type\":\"meta\",\"ident\":\"x\",\"seed\":3,\"schema_version\":2}\n",
            "{\"type\":\"end\",\"samples\":0}\n",
        );
        assert_eq!(validate_jsonl(&schema, right), Vec::<String>::new());
        let stale = concat!(
            "{\"type\":\"meta\",\"ident\":\"x\",\"seed\":3,\"schema_version\":1}\n",
            "{\"type\":\"end\",\"samples\":0}\n",
        );
        let errors = validate_jsonl(&schema, stale);
        assert!(
            errors.iter().any(|e| e.contains("schema_version must be 2 (found 1)")),
            "{errors:?}"
        );
        let missing = concat!(
            "{\"type\":\"meta\",\"ident\":\"x\",\"seed\":3}\n",
            "{\"type\":\"end\",\"samples\":0}\n",
        );
        let errors = validate_jsonl(&schema, missing);
        assert!(
            errors.iter().any(|e| e.contains("schema_version must be 2 (found none)")),
            "{errors:?}"
        );
    }

    #[test]
    fn builtin_schema_parses() {
        let schema = Schema::parse(BUILTIN_SCHEMA).expect("builtin schema parses");
        assert_eq!(schema.version, Some(2));
        assert_eq!(schema.first.as_deref(), Some("meta"));
        assert_eq!(schema.last.as_deref(), Some("end"));
        assert!(schema.record("sample").is_some());
        assert!(schema.record("event").is_some());
        assert!(schema.record("workingset").is_some());
        assert!(schema.record("lru_gen").is_some());
    }
}
