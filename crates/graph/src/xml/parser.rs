//! Event-less recursive XML reader producing a [`DataGraph`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;

use crate::{DataGraph, GraphBuilder, NodeId};

pub use mrx_error::XmlError;

/// Options controlling ID/IDREF edge extraction and parser limits.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Attribute names that *declare* an ID. Default: `["id"]`.
    pub id_attrs: Vec<String>,
    /// Whether non-ID attribute values are matched against declared IDs to
    /// produce reference edges. Default: `true`.
    pub resolve_idrefs: bool,
    /// Maximum element nesting depth; a document deeper than this is
    /// rejected with a typed [`XmlError`] instead of exhausting memory on
    /// the open-element stack. Default: `512`.
    pub max_depth: usize,
    /// When set, the reference anomalies [`ParseReport`] merely counts —
    /// duplicate ID declarations and dangling IDREF tokens — become parse
    /// errors. Default: `false`.
    pub strict_refs: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            id_attrs: vec!["id".to_string()],
            resolve_idrefs: true,
            max_depth: 512,
            strict_refs: false,
        }
    }
}

/// Reference anomalies observed during a parse. Lenient parses accept both
/// kinds and count them here; [`ParseOptions::strict_refs`] turns either
/// into an [`XmlError`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseReport {
    /// ID values declared more than once (last declaration wins).
    pub duplicate_ids: u64,
    /// Whitespace-separated tokens that failed to resolve inside an
    /// attribute where at least one *other* token did resolve. An
    /// attribute with no matching token at all is presumed not to be a
    /// reference list (the parser is DTD-free and cannot know), so it is
    /// never counted.
    pub dangling_idrefs: u64,
}

impl ParseReport {
    /// True when the parse saw no reference anomalies.
    pub fn is_clean(&self) -> bool {
        self.duplicate_ids == 0 && self.dangling_idrefs == 0
    }
}

/// Parses `input` with default [`ParseOptions`].
pub fn parse(input: &str) -> Result<DataGraph, XmlError> {
    parse_with(input, &ParseOptions::default())
}

/// Parses `input` into a [`DataGraph`] under the given options.
///
/// The document must have exactly one root element; it becomes the graph
/// root. Element order is preserved in node-id assignment (document order).
pub fn parse_with(input: &str, opts: &ParseOptions) -> Result<DataGraph, XmlError> {
    parse_with_report(input, opts).map(|(g, _)| g)
}

/// Like [`parse_with`], additionally returning the [`ParseReport`] of
/// reference anomalies the lenient parse tolerated.
pub fn parse_with_report(
    input: &str,
    opts: &ParseOptions,
) -> Result<(DataGraph, ParseReport), XmlError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        builder: GraphBuilder::new(),
        ids: HashMap::new(),
        pending_refs: Vec::new(),
        report: ParseReport::default(),
        opts,
    };
    p.skip_misc()?;
    if p.eof() {
        return Err(p.err("document contains no root element"));
    }
    let root = p.parse_element(None)?;
    debug_assert_eq!(root, NodeId(0));
    p.skip_misc()?;
    if !p.eof() {
        return Err(p.err("content after the root element"));
    }
    // Second pass: resolve IDREF attribute values against declared IDs.
    if opts.resolve_idrefs {
        let refs = std::mem::take(&mut p.pending_refs);
        for (from, value) in refs {
            let mut matched = false;
            let mut dangling = 0u64;
            for token in value.split_ascii_whitespace() {
                match p.ids.get(token) {
                    Some(&to) => {
                        matched = true;
                        if to != from {
                            p.builder.add_ref(from, to);
                        }
                    }
                    None => dangling += 1,
                }
            }
            // Only an attribute that resolved at least one token is known
            // to be a reference list; its unresolved tokens are dangling.
            if matched && dangling > 0 {
                p.report.dangling_idrefs += dangling;
                if opts.strict_refs {
                    return Err(p.err(format!(
                        "attribute value `{value}` mixes resolved and dangling IDREF tokens"
                    )));
                }
            }
        }
    }
    Ok((p.builder.freeze(), p.report))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    builder: GraphBuilder,
    /// Declared ID value -> element.
    ids: HashMap<String, NodeId>,
    /// Non-ID attribute values to be matched against IDs after the parse.
    pending_refs: Vec<(NodeId, String)>,
    report: ParseReport,
    opts: &'a ParseOptions,
}

impl<'a> Parser<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        XmlError {
            message: message.into(),
            offset: self.pos,
            line,
            column: col,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_until(&mut self, terminator: &str) -> Result<(), XmlError> {
        match find(&self.bytes[self.pos..], terminator.as_bytes()) {
            Some(i) => {
                self.pos += i + terminator.len();
                Ok(())
            }
            None => Err(self.err(format!("unterminated construct, expected `{terminator}`"))),
        }
    }

    /// Skips whitespace, text, comments, PIs, CDATA, DOCTYPE and the XML
    /// declaration — everything that is not an element tag.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            // Text content (outside markup) is structurally irrelevant.
            while let Some(b) = self.peek() {
                if b == b'<' {
                    break;
                }
                self.pos += 1;
            }
            if self.eof() {
                return Ok(());
            }
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.skip_until("]]>")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.starts_with("<!") {
                self.skip_until(">")?;
            } else {
                return Ok(()); // `<name` or `</name`
            }
        }
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        // Balance `[ ... ]` (internal subset) then find the closing `>`.
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err("unterminated DOCTYPE declaration"))
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() || b == b'>' || b == b'/' || b == b'=' {
                break;
            }
            if b == b'<' {
                return Err(self.err("`<` inside a name"));
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        // Safety of from_utf8: we only stopped at ASCII delimiters, so the
        // slice lies on UTF-8 boundaries of the original &str input.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("name is not valid UTF-8"))
    }

    /// Parses one element and its whole subtree (cursor on `<`); returns
    /// its node. Iterative with an explicit open-element stack, so document
    /// depth is bounded by memory rather than the call stack.
    fn parse_element(&mut self, parent: Option<NodeId>) -> Result<NodeId, XmlError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        // Stack of open elements: (node, tag name).
        let mut open: Vec<(NodeId, String)> = Vec::new();
        let mut root: Option<NodeId> = None;
        loop {
            if self.starts_with("</") {
                // End tag: close the innermost open element.
                self.pos += 2;
                let end = self.parse_name()?.to_string();
                let Some((node, name)) = open.pop() else {
                    return Err(self.err(format!("unexpected end tag `</{end}>`")));
                };
                if end != name {
                    return Err(
                        self.err(format!("mismatched end tag: `</{end}>` closes `<{name}>`"))
                    );
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected `>` in end tag"));
                }
                self.pos += 1;
                if open.is_empty() {
                    debug_assert_eq!(root, Some(node));
                    return Ok(node);
                }
            } else {
                // Start tag.
                debug_assert_eq!(self.peek(), Some(b'<'));
                self.pos += 1;
                let name = self.parse_name()?.to_string();
                let node = match open.last() {
                    Some(&(p, _)) => self.builder.add_child(p, &name),
                    None => match parent {
                        Some(p) => self.builder.add_child(p, &name),
                        None => self.builder.add_node(&name),
                    },
                };
                if root.is_none() {
                    root = Some(node);
                }
                // Attributes, then `>` (open) or `/>` (self-closing).
                let self_closing = loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b'>') => {
                            self.pos += 1;
                            break false;
                        }
                        Some(b'/') => {
                            self.pos += 1;
                            if self.peek() == Some(b'>') {
                                self.pos += 1;
                                break true;
                            }
                            return Err(self.err("expected `>` after `/`"));
                        }
                        Some(_) => {
                            let (attr, value) = self.parse_attribute()?;
                            self.record_attribute(node, &attr, value)?;
                        }
                        None => return Err(self.err(format!("unterminated start tag `<{name}`"))),
                    }
                };
                if self_closing {
                    if open.is_empty() {
                        return Ok(node);
                    }
                } else {
                    open.push((node, name));
                    if open.len() > self.opts.max_depth {
                        return Err(self.err(format!(
                            "element nesting deeper than the {}-level limit \
                             (raise ParseOptions::max_depth to accept it)",
                            self.opts.max_depth
                        )));
                    }
                }
            }
            // Advance to the next markup inside the still-open element.
            self.skip_misc()?;
            if self.eof() {
                let name = open.last().map(|(_, n)| n.as_str()).unwrap_or("?");
                return Err(self.err(format!("missing end tag `</{name}>`")));
            }
        }
    }

    fn parse_attribute(&mut self) -> Result<(String, String), XmlError> {
        let name = self.parse_name()?.to_string();
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(self.err(format!("expected `=` after attribute `{name}`")));
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("attribute value must be quoted")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("attribute value is not valid UTF-8"))?;
                self.pos += 1;
                return Ok((name, decode_entities(raw)));
            }
            if b == b'<' {
                return Err(self.err("`<` inside an attribute value"));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated attribute value"))
    }

    fn record_attribute(
        &mut self,
        node: NodeId,
        attr: &str,
        value: String,
    ) -> Result<(), XmlError> {
        if self.opts.id_attrs.iter().any(|a| a == attr) {
            // Last declaration wins; real XML would reject duplicate IDs,
            // but a lenient parse accepts, overwrites and counts.
            if self.ids.contains_key(&value) {
                self.report.duplicate_ids += 1;
                if self.opts.strict_refs {
                    return Err(self.err(format!("duplicate ID declaration `{value}`")));
                }
            }
            self.ids.insert(value, node);
        } else if self.opts.resolve_idrefs {
            self.pending_refs.push((node, value));
        }
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Decodes the five predefined entities and numeric character references;
/// unknown entities are preserved verbatim.
fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = match rest.find(';') {
            Some(i) => i,
            None => break,
        };
        let entity = &rest[1..semi];
        let decoded: Option<String> = match entity {
            "lt" => Some("<".into()),
            "gt" => Some(">".into()),
            "amp" => Some("&".into()),
            "apos" => Some("'".into()),
            "quot" => Some("\"".into()),
            _ => entity
                .strip_prefix("#x")
                .or_else(|| entity.strip_prefix("#X"))
                .and_then(|h| u32::from_str_radix(h, 16).ok())
                .or_else(|| entity.strip_prefix('#').and_then(|d| d.parse().ok()))
                .and_then(char::from_u32)
                .map(String::from),
        };
        match decoded {
            Some(d) => out.push_str(&d),
            None => out.push_str(&rest[..=semi]),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document() {
        let g = parse("<a/>").unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.label_str(g.label(g.root())), "a");
    }

    #[test]
    fn nesting_and_document_order() {
        let g = parse("<r><a><c/></a><b/></r>").unwrap();
        assert_eq!(g.node_count(), 4);
        let labels: Vec<_> = g.nodes().map(|v| g.label_str(g.label(v))).collect();
        assert_eq!(labels, vec!["r", "a", "c", "b"]);
        assert_eq!(g.tree_parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn idref_resolution() {
        let g = parse(r#"<r><p id="x1"/><q ref="x1"/></r>"#).unwrap();
        assert_eq!(g.ref_edge_count(), 1);
        assert_eq!(g.ref_edges()[0], (NodeId(2), NodeId(1)));
    }

    #[test]
    fn idrefs_whitespace_list() {
        let g = parse(r#"<r><p id="a"/><p id="b"/><q refs="a b c"/></r>"#).unwrap();
        assert_eq!(g.ref_edge_count(), 2);
    }

    #[test]
    fn self_reference_is_ignored() {
        let g = parse(r#"<r><p id="a" link="a"/></r>"#).unwrap();
        assert_eq!(g.ref_edge_count(), 0);
    }

    #[test]
    fn xmark_style_attributes() {
        let g = parse(
            r#"<site><people><person id="person0"/></people>
               <open_auctions><open_auction id="open_auction0">
                 <bidder><personref person="person0"/></bidder>
                 <seller person="person0"/>
               </open_auction></open_auctions></site>"#,
        )
        .unwrap();
        assert_eq!(g.ref_edge_count(), 2);
    }

    #[test]
    fn prolog_comments_cdata_doctype_skipped() {
        let g = parse(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE r [<!ELEMENT r (a)>]>\n\
             <!-- hi --><r>text<![CDATA[<fake/>]]><a/><?pi data?></r><!-- bye -->",
        )
        .unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn entity_decoding_in_attributes() {
        let g = parse(r#"<r><p id="a&amp;b"/><q ref="a&amp;b"/></r>"#).unwrap();
        assert_eq!(g.ref_edge_count(), 1);
        assert_eq!(decode_entities("&#65;&#x42;&unknown;"), "AB&unknown;");
    }

    #[test]
    fn disable_idref_resolution() {
        let opts = ParseOptions {
            resolve_idrefs: false,
            ..ParseOptions::default()
        };
        let g = parse_with(r#"<r><p id="a"/><q ref="a"/></r>"#, &opts).unwrap();
        assert_eq!(g.ref_edge_count(), 0);
    }

    #[test]
    fn custom_id_attribute() {
        let opts = ParseOptions {
            id_attrs: vec!["oid".to_string()],
            ..ParseOptions::default()
        };
        let g = parse_with(r#"<r><p oid="a"/><q ref="a"/></r>"#, &opts).unwrap();
        assert_eq!(g.ref_edge_count(), 1);
    }

    #[test]
    fn error_mismatched_tag() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched end tag"), "{e}");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_unterminated() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a").is_err());
        assert!(parse(r#"<a b="c>"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn error_trailing_content() {
        let e = parse("<a/><b/>").unwrap_err();
        assert!(e.message.contains("after the root"), "{e}");
    }

    #[test]
    fn error_reports_line_and_column() {
        let e = parse("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.column > 1);
        assert!(format!("{e}").contains("line 2"));
    }

    #[test]
    fn unquoted_attribute_rejected() {
        assert!(parse("<a b=c/>").is_err());
    }

    /// A document with `n` nested elements: `<d><d>...<x/>...</d></d>`.
    fn deep_doc(n: usize) -> String {
        let mut s = String::with_capacity(n * 8 + 4);
        for _ in 0..n {
            s.push_str("<d>");
        }
        s.push_str("<x/>");
        for _ in 0..n {
            s.push_str("</d>");
        }
        s
    }

    #[test]
    fn hundred_thousand_deep_document_rejected_by_default() {
        let doc = deep_doc(100_000);
        let e = parse(&doc).unwrap_err();
        assert!(e.message.contains("max_depth"), "{e}");

        // Raising the limit accepts the same document (bounded by heap,
        // not the call stack — the element loop is iterative).
        let opts = ParseOptions {
            max_depth: 200_000,
            ..ParseOptions::default()
        };
        let g = parse_with(&doc, &opts).unwrap();
        assert_eq!(g.node_count(), 100_001);
    }

    #[test]
    fn depth_limit_is_exact() {
        let opts = ParseOptions {
            max_depth: 3,
            ..ParseOptions::default()
        };
        assert!(parse_with(&deep_doc(3), &opts).is_ok());
        assert!(parse_with(&deep_doc(4), &opts).is_err());
    }

    #[test]
    fn report_counts_duplicate_ids_and_dangling_idrefs() {
        let doc = r#"<r><p id="a"/><p id="a"/><p id="b"/><q refs="a b c d"/><s other="zzz"/></r>"#;
        let (g, report) = parse_with_report(doc, &ParseOptions::default()).unwrap();
        assert_eq!(report.duplicate_ids, 1);
        // `c` and `d` dangle inside a resolved reference list; `zzz`
        // matches nothing at all, so that attribute is not counted.
        assert_eq!(report.dangling_idrefs, 2);
        assert!(!report.is_clean());
        assert_eq!(g.ref_edge_count(), 2);

        let clean = parse_with_report(r#"<r><p id="a"/><q ref="a"/></r>"#, &Default::default())
            .unwrap()
            .1;
        assert!(clean.is_clean());
    }

    #[test]
    fn strict_refs_turns_anomalies_into_errors() {
        let strict = ParseOptions {
            strict_refs: true,
            ..ParseOptions::default()
        };
        let e = parse_with(r#"<r><p id="a"/><p id="a"/></r>"#, &strict).unwrap_err();
        assert!(e.message.contains("duplicate ID"), "{e}");
        let e = parse_with(r#"<r><p id="a"/><q refs="a c"/></r>"#, &strict).unwrap_err();
        assert!(e.message.contains("dangling"), "{e}");
        // A clean document parses identically under strict mode.
        assert!(parse_with(r#"<r><p id="a"/><q ref="a"/></r>"#, &strict).is_ok());
    }
}
