//! The tunability annotation language and its preprocessor.
//!
//! The paper specifies tunability with source-level annotations
//! (`control_parameters`, `execution_env`, `QoS_metric`, `task`,
//! `transition` — Figure 2) that a preprocessor converts into an
//! executable form plus performance-database templates. This module is
//! that preprocessor: a small declarative language parsed into a
//! [`TunableSpec`].
//!
//! # Example
//!
//! ```text
//! control_parameters {
//!     int dR in {80, 160, 320};
//!     int l in 3..4;
//!     enum c { lzw = 1, bzip = 2 };
//! }
//! execution_env {
//!     host client;
//!     host server speed 0.74;
//!     link client server;
//! }
//! qos_metric {
//!     transmit_time minimize "s";
//!     resolution maximize "level";
//! }
//! task module1 {
//!     params l, dR, c;
//!     uses client.cpu, client.network;
//!     yields transmit_time, resolution;
//!     guard l >= 3;
//! }
//! transition on c { notify server c; }
//! ```

use crate::env::{HostSpec, ResourceKey};
use crate::param::{ControlParam, ControlSpace, ParamDomain};
use crate::qos::QosMetricDef;
use crate::spec::TunableSpec;
use crate::task::{Guard, TaskSpec, TransitionAction, TransitionSpec};

/// A parse error with a line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1 }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { line: self.line, msg: msg.into() }
    }

    fn tokenize(mut self) -> Result<Vec<(Tok, usize)>, ParseError> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let c = self.src[self.pos] as char;
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                ' ' | '\t' | '\r' => self.pos += 1,
                '/' if self.peek(1) == Some('/') => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                '#' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                '{' | '}' | ';' | ',' | '(' | ')' => {
                    let s = match c {
                        '{' => "{",
                        '}' => "}",
                        ';' => ";",
                        ',' => ",",
                        '(' => "(",
                        _ => ")",
                    };
                    out.push((Tok::Sym(s), self.line));
                    self.pos += 1;
                }
                '.' if self.peek(1) == Some('.') => {
                    out.push((Tok::Sym(".."), self.line));
                    self.pos += 2;
                }
                '.' => {
                    out.push((Tok::Sym("."), self.line));
                    self.pos += 1;
                }
                '-' if self.peek(1) == Some('>') => {
                    out.push((Tok::Sym("->"), self.line));
                    self.pos += 2;
                }
                '=' if self.peek(1) == Some('=') => {
                    out.push((Tok::Sym("=="), self.line));
                    self.pos += 2;
                }
                '=' => {
                    out.push((Tok::Sym("="), self.line));
                    self.pos += 1;
                }
                '<' if self.peek(1) == Some('=') => {
                    out.push((Tok::Sym("<="), self.line));
                    self.pos += 2;
                }
                '>' if self.peek(1) == Some('=') => {
                    out.push((Tok::Sym(">="), self.line));
                    self.pos += 2;
                }
                '"' => {
                    self.pos += 1;
                    let start = self.pos;
                    while self.pos < self.src.len() && self.src[self.pos] != b'"' {
                        if self.src[self.pos] == b'\n' {
                            return Err(self.err("unterminated string"));
                        }
                        self.pos += 1;
                    }
                    if self.pos >= self.src.len() {
                        return Err(self.err("unterminated string"));
                    }
                    let s = std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push((Tok::Str(s.to_string()), self.line));
                    self.pos += 1;
                }
                c if c.is_ascii_digit()
                    || (c == '-' && self.peek(1).is_some_and(|d| d.is_ascii_digit())) =>
                {
                    let start = self.pos;
                    if c == '-' {
                        self.pos += 1;
                    }
                    let mut is_float = false;
                    while self.pos < self.src.len() {
                        let d = self.src[self.pos] as char;
                        if d.is_ascii_digit() || d == '_' {
                            self.pos += 1;
                        } else if d == '.'
                            && !is_float
                            && self.peek(1).is_some_and(|e| e.is_ascii_digit())
                        {
                            is_float = true;
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    let text: String =
                        std::str::from_utf8(&self.src[start..self.pos]).unwrap().replace('_', "");
                    if is_float {
                        let v: f64 = text.parse().map_err(|_| self.err("bad float"))?;
                        out.push((Tok::Float(v), self.line));
                    } else {
                        let v: i64 = text.parse().map_err(|_| self.err("bad integer"))?;
                        out.push((Tok::Int(v), self.line));
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let start = self.pos;
                    while self.pos < self.src.len() {
                        let d = self.src[self.pos] as char;
                        if d.is_ascii_alphanumeric() || d == '_' {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    let s = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                    out.push((Tok::Ident(s.to_string()), self.line));
                }
                other => return Err(self.err(format!("unexpected character {other:?}"))),
            }
        }
        Ok(out)
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.src.get(self.pos + ahead).map(|&b| b as char)
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map(|(_, l)| *l).unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), msg: msg.into() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Sym(x) if x == s => Ok(()),
            other => Err(self.err(format!("expected {s:?}, found {other:?}"))),
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.next()? {
            Tok::Int(v) => Ok(v),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn number_f64(&mut self) -> Result<f64, ParseError> {
        match self.next()? {
            Tok::Int(v) => Ok(v as f64),
            Tok::Float(v) => Ok(v),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn ident_eq(&mut self, kw: &str) -> Result<(), ParseError> {
        let id = self.ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}, found {id:?}")))
        }
    }

    fn resource_key(&mut self) -> Result<ResourceKey, ParseError> {
        let comp = self.ident()?;
        self.expect_sym(".")?;
        let kind = self.ident()?;
        crate::env::ResourceKind::parse(&kind)
            .map(|k| ResourceKey::new(&comp, k))
            .ok_or_else(|| self.err(format!("unknown resource kind {kind:?}")))
    }

    fn ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut out = vec![self.ident()?];
        while self.eat_sym(",") {
            out.push(self.ident()?);
        }
        Ok(out)
    }

    fn int_set(&mut self) -> Result<Vec<i64>, ParseError> {
        self.expect_sym("{")?;
        let mut out = vec![self.int()?];
        while self.eat_sym(",") {
            out.push(self.int()?);
        }
        self.expect_sym("}")?;
        Ok(out)
    }

    // guard := and_expr ('or' and_expr)*
    fn guard(&mut self) -> Result<Guard, ParseError> {
        let mut terms = vec![self.guard_and()?];
        while matches!(self.peek(), Some(Tok::Ident(s)) if s == "or") {
            self.pos += 1;
            terms.push(self.guard_and()?);
        }
        Ok(if terms.len() == 1 { terms.pop().unwrap() } else { Guard::Or(terms) })
    }

    fn guard_and(&mut self) -> Result<Guard, ParseError> {
        let mut terms = vec![self.guard_atom()?];
        while matches!(self.peek(), Some(Tok::Ident(s)) if s == "and") {
            self.pos += 1;
            terms.push(self.guard_atom()?);
        }
        Ok(if terms.len() == 1 { terms.pop().unwrap() } else { Guard::And(terms) })
    }

    fn guard_atom(&mut self) -> Result<Guard, ParseError> {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == "not") {
            self.pos += 1;
            return Ok(Guard::Not(Box::new(self.guard_atom()?)));
        }
        if self.eat_sym("(") {
            let g = self.guard()?;
            self.expect_sym(")")?;
            return Ok(g);
        }
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == "true") {
            self.pos += 1;
            return Ok(Guard::True);
        }
        let param = self.ident()?;
        match self.next()? {
            Tok::Sym("==") => Ok(Guard::Eq(param, self.int()?)),
            Tok::Sym("<=") => Ok(Guard::Le(param, self.int()?)),
            Tok::Sym(">=") => Ok(Guard::Ge(param, self.int()?)),
            Tok::Ident(ref s) if s == "in" => Ok(Guard::In(param, self.int_set()?)),
            other => Err(self.err(format!("expected comparison operator, found {other:?}"))),
        }
    }
}

/// Parse annotation source into a validated [`TunableSpec`].
///
/// ```
/// let spec = adapt_core::dsl::parse(
///     "control_parameters { int q in 1..3; }
///      execution_env { host node; }
///      qos_metric { latency minimize \"s\"; }
///      task work { params q; uses node.cpu; yields latency; }",
/// )
/// .unwrap();
/// assert_eq!(spec.configurations().len(), 3);
/// ```
pub fn parse(src: &str) -> Result<TunableSpec, ParseError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, pos: 0 };
    let mut spec = TunableSpec::default();

    while p.peek().is_some() {
        let section = p.ident()?;
        match section.as_str() {
            "control_parameters" => {
                p.expect_sym("{")?;
                let mut params = Vec::new();
                while !p.eat_sym("}") {
                    let kind = p.ident()?;
                    match kind.as_str() {
                        "int" => {
                            let name = p.ident()?;
                            p.ident_eq("in")?;
                            match p.peek() {
                                Some(Tok::Sym("{")) => {
                                    let vs = p.int_set()?;
                                    params
                                        .push(ControlParam { name, domain: ParamDomain::Set(vs) });
                                }
                                _ => {
                                    let min = p.int()?;
                                    p.expect_sym("..")?;
                                    let max = p.int()?;
                                    let step = if matches!(p.peek(), Some(Tok::Ident(s)) if s == "step")
                                    {
                                        p.pos += 1;
                                        p.int()?
                                    } else {
                                        1
                                    };
                                    if step <= 0 || max < min {
                                        return Err(p.err("invalid range domain"));
                                    }
                                    params.push(ControlParam {
                                        name,
                                        domain: ParamDomain::Range { min, max, step },
                                    });
                                }
                            }
                            p.expect_sym(";")?;
                        }
                        "enum" => {
                            let name = p.ident()?;
                            p.expect_sym("{")?;
                            let mut vals = Vec::new();
                            loop {
                                let vname = p.ident()?;
                                p.expect_sym("=")?;
                                let v = p.int()?;
                                vals.push((vname, v));
                                if !p.eat_sym(",") {
                                    break;
                                }
                            }
                            p.expect_sym("}")?;
                            p.expect_sym(";")?;
                            params.push(ControlParam { name, domain: ParamDomain::Enum(vals) });
                        }
                        other => return Err(p.err(format!("unknown parameter kind {other:?}"))),
                    }
                }
                spec.control = ControlSpace { params };
            }
            "execution_env" => {
                p.expect_sym("{")?;
                while !p.eat_sym("}") {
                    let kw = p.ident()?;
                    match kw.as_str() {
                        "host" => {
                            let name = p.ident()?;
                            let speed = if matches!(p.peek(), Some(Tok::Ident(s)) if s == "speed") {
                                p.pos += 1;
                                p.number_f64()?
                            } else {
                                1.0
                            };
                            p.expect_sym(";")?;
                            spec.env.hosts.push(HostSpec { name, speed });
                        }
                        "link" => {
                            let a = p.ident()?;
                            let b = p.ident()?;
                            p.expect_sym(";")?;
                            spec.env.links.push((a, b));
                        }
                        other => return Err(p.err(format!("unknown env entry {other:?}"))),
                    }
                }
            }
            "qos_metric" => {
                p.expect_sym("{")?;
                while !p.eat_sym("}") {
                    let name = p.ident()?;
                    let dir = p.ident()?;
                    let sense = match dir.as_str() {
                        "minimize" => crate::qos::Sense::LowerIsBetter,
                        "maximize" => crate::qos::Sense::HigherIsBetter,
                        other => {
                            return Err(
                                p.err(format!("expected minimize/maximize, found {other:?}"))
                            )
                        }
                    };
                    let unit = match p.peek() {
                        Some(Tok::Str(_)) => match p.next()? {
                            Tok::Str(s) => s,
                            _ => unreachable!(),
                        },
                        _ => String::new(),
                    };
                    p.expect_sym(";")?;
                    spec.metrics.push(QosMetricDef { name, sense, unit });
                }
            }
            "task" => {
                let name = p.ident()?;
                let mut task = TaskSpec::new(&name);
                p.expect_sym("{")?;
                while !p.eat_sym("}") {
                    let kw = p.ident()?;
                    match kw.as_str() {
                        "params" => {
                            task.params = p.ident_list()?;
                            p.expect_sym(";")?;
                        }
                        "uses" => {
                            let mut keys = vec![p.resource_key()?];
                            while p.eat_sym(",") {
                                keys.push(p.resource_key()?);
                            }
                            task.resources = keys;
                            p.expect_sym(";")?;
                        }
                        "yields" => {
                            task.metrics = p.ident_list()?;
                            p.expect_sym(";")?;
                        }
                        "guard" => {
                            task.guard = p.guard()?;
                            p.expect_sym(";")?;
                        }
                        other => return Err(p.err(format!("unknown task entry {other:?}"))),
                    }
                }
                spec.tasks.add_task(task);
            }
            "edge" => {
                let a = p.ident()?;
                p.expect_sym("->")?;
                let b = p.ident()?;
                p.expect_sym(";")?;
                spec.tasks.add_edge(&a, &b);
            }
            "transition" => {
                p.ident_eq("on")?;
                let on_params = p.ident_list()?;
                let mut tr = TransitionSpec { on_params, guard: Guard::True, actions: Vec::new() };
                p.expect_sym("{")?;
                while !p.eat_sym("}") {
                    let kw = p.ident()?;
                    match kw.as_str() {
                        "notify" => {
                            let host = p.ident()?;
                            let param = p.ident()?;
                            p.expect_sym(";")?;
                            tr.actions.push(TransitionAction::NotifyHost { host, param });
                        }
                        "set" => {
                            let name = p.ident()?;
                            p.expect_sym(";")?;
                            tr.actions.push(TransitionAction::SetLocal { name });
                        }
                        "guard" => {
                            tr.guard = p.guard()?;
                            p.expect_sym(";")?;
                        }
                        other => return Err(p.err(format!("unknown transition entry {other:?}"))),
                    }
                }
                spec.transitions.push(tr);
            }
            other => return Err(p.err(format!("unknown section {other:?}"))),
        }
    }

    spec.validate().map_err(|msg| ParseError { line: 0, msg })?;
    Ok(spec)
}

/// The annotation source for the paper's active-visualization client
/// (Figure 2). Every scenario runs it: `visapp::viz_spec` parses it with
/// the `dR` and `l` declarations matched to the scenario's geometry.
pub const ACTIVE_VIZ_SPEC: &str = r#"
// Active visualization client (Chang & Karamcheti, HPDC 2000, Figure 2).
control_parameters {
    int dR in {80, 160, 320};    // incremental fovea size
    enum c { lzw = 1, bzip = 2 };// compression type
    int l in 3..4;               // level of image resolution
}
execution_env {
    host client;                 // local host
    host server;
    link client server;
}
qos_metric {
    transmit_time minimize "s";  // total image transmission time
    response_time minimize "s";  // response time of a single round
    resolution maximize "level"; // resolution of the image
}
task module1 {
    params l, dR, c;
    uses client.cpu, client.network;
    yields transmit_time, response_time, resolution;
}
transition on c {
    notify server c;             // if (new.c != c) notify(env.server, new.c)
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Configuration;

    #[test]
    fn parses_the_paper_example() {
        let spec = parse(ACTIVE_VIZ_SPEC).unwrap();
        assert_eq!(spec.control.params.len(), 3);
        assert_eq!(spec.control.cardinality(), 12);
        assert_eq!(spec.env.hosts.len(), 2);
        assert_eq!(spec.metrics.len(), 3);
        assert_eq!(spec.tasks.tasks.len(), 1);
        assert_eq!(spec.transitions.len(), 1);
        let t = spec.perf_db_template();
        assert_eq!(t.axes.len(), 2);
    }

    #[test]
    fn range_with_step() {
        let spec = parse(
            "control_parameters { int x in 0..10 step 5; }
             qos_metric { m minimize; }",
        )
        .unwrap();
        assert_eq!(spec.control.param("x").unwrap().domain.values(), vec![0, 5, 10]);
    }

    #[test]
    fn guards_parse_and_eval() {
        let spec = parse(
            r#"
            control_parameters { int l in 1..5; enum c { a = 0, b = 1 }; }
            execution_env { host h; }
            qos_metric { q maximize "u"; }
            task t {
                params l, c;
                uses h.cpu;
                yields q;
                guard l >= 3 and not c == 0 or l == 1;
            }
            "#,
        )
        .unwrap();
        let g = &spec.tasks.tasks[0].guard;
        assert!(g.eval(&Configuration::new(&[("l", 4), ("c", 1)])));
        assert!(!g.eval(&Configuration::new(&[("l", 4), ("c", 0)])));
        assert!(g.eval(&Configuration::new(&[("l", 1), ("c", 0)])));
    }

    #[test]
    fn parenthesized_guard() {
        let spec = parse(
            r#"
            control_parameters { int x in 0..9; }
            execution_env { host h; }
            qos_metric { q maximize; }
            task t { params x; uses h.cpu; yields q; guard (x == 1 or x == 2) and not x in {2}; }
            "#,
        )
        .unwrap();
        let g = &spec.tasks.tasks[0].guard;
        assert!(g.eval(&Configuration::new(&[("x", 1)])));
        assert!(!g.eval(&Configuration::new(&[("x", 2)])));
        assert!(!g.eval(&Configuration::new(&[("x", 3)])));
    }

    #[test]
    fn host_speed_and_links() {
        let spec =
            parse("execution_env { host fast; host slow speed 0.44; link fast slow; }").unwrap();
        assert_eq!(spec.env.host("slow").unwrap().speed, 0.44);
        assert_eq!(spec.env.links, vec![("fast".to_string(), "slow".to_string())]);
    }

    #[test]
    fn edges_build_dag() {
        let spec = parse(
            r#"
            execution_env { host h; }
            qos_metric { q maximize; }
            task a { uses h.cpu; yields q; }
            task b { uses h.cpu; yields q; }
            edge a -> b;
            "#,
        )
        .unwrap();
        assert_eq!(spec.tasks.edges, vec![("a".to_string(), "b".to_string())]);
    }

    #[test]
    fn error_reporting_has_lines() {
        let err = parse("control_parameters {\n  int x in ??; }").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse("bogus_section { }").unwrap_err();
        assert!(err.msg.contains("unknown section"));
    }

    #[test]
    fn validation_failures_surface() {
        // Task references a parameter that was never declared.
        let err = parse(
            r#"
            execution_env { host h; }
            qos_metric { q maximize; }
            task t { params ghost; uses h.cpu; yields q; }
            "#,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown parameter"));
    }

    #[test]
    fn cycle_rejected() {
        let err = parse(
            r#"
            execution_env { host h; }
            qos_metric { q maximize; }
            task a { uses h.cpu; yields q; }
            task b { uses h.cpu; yields q; }
            edge a -> b;
            edge b -> a;
            "#,
        )
        .unwrap_err();
        assert!(err.msg.contains("cycle"));
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let spec = parse(
            "# hash comment\n// slash comment\ncontrol_parameters { int x in {1}; } // trailing",
        )
        .unwrap();
        assert_eq!(spec.control.params.len(), 1);
    }

    #[test]
    fn transition_with_guard_and_actions() {
        let spec = parse(
            r#"
            control_parameters { int c in {1, 2}; }
            execution_env { host server; }
            transition on c { notify server c; set local_buffer; guard c >= 2; }
            "#,
        )
        .unwrap();
        let tr = &spec.transitions[0];
        assert_eq!(tr.on_params, vec!["c"]);
        assert_eq!(tr.guard, Guard::Ge("c".into(), 2));
        assert_eq!(
            tr.actions,
            vec![
                TransitionAction::NotifyHost { host: "server".into(), param: "c".into() },
                TransitionAction::SetLocal { name: "local_buffer".into() },
            ]
        );
    }

    #[test]
    fn duplicate_parameter_is_an_error() {
        let err = parse("control_parameters { int x in 1..2; int x in {3}; }").unwrap_err();
        assert_eq!(err.msg, "duplicate parameter x");
    }

    #[test]
    fn duplicate_task_is_an_error() {
        let err = parse(
            r#"
            execution_env { host h; }
            qos_metric { q maximize; }
            task a { uses h.cpu; yields q; }
            task a { uses h.cpu; yields q; }
            "#,
        )
        .unwrap_err();
        assert_eq!(err.msg, "duplicate task a");
    }

    #[test]
    fn range_past_i64_max_ends() {
        let spec = parse(
            "control_parameters { int x in 1..9223372036854775807 step 4611686018427387904; }",
        )
        .unwrap();
        let values = spec.control.param("x").unwrap().domain.values();
        assert_eq!(values, vec![1, 4_611_686_018_427_387_905]);
    }
}

/// Render a [`TunableSpec`] back into annotation source. `parse(render(s))
/// == s` for any spec expressible in the language (see the roundtrip
/// tests); useful for persisting preprocessor output next to the
/// performance database.
pub fn render(spec: &TunableSpec) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if !spec.control.params.is_empty() {
        out.push_str("control_parameters {\n");
        for p in &spec.control.params {
            match &p.domain {
                ParamDomain::Range { min, max, step } => {
                    if *step == 1 {
                        let _ = writeln!(out, "    int {} in {}..{};", p.name, min, max);
                    } else {
                        let _ =
                            writeln!(out, "    int {} in {}..{} step {};", p.name, min, max, step);
                    }
                }
                ParamDomain::Set(vs) => {
                    let list: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                    let _ = writeln!(out, "    int {} in {{{}}};", p.name, list.join(", "));
                }
                ParamDomain::Enum(vs) => {
                    let list: Vec<String> = vs.iter().map(|(n, v)| format!("{n} = {v}")).collect();
                    let _ = writeln!(out, "    enum {} {{ {} }};", p.name, list.join(", "));
                }
            }
        }
        out.push_str("}\n");
    }
    if !spec.env.hosts.is_empty() || !spec.env.links.is_empty() {
        out.push_str("execution_env {\n");
        for h in &spec.env.hosts {
            if (h.speed - 1.0).abs() < 1e-12 {
                let _ = writeln!(out, "    host {};", h.name);
            } else {
                let _ = writeln!(out, "    host {} speed {};", h.name, h.speed);
            }
        }
        for (a, b) in &spec.env.links {
            let _ = writeln!(out, "    link {a} {b};");
        }
        out.push_str("}\n");
    }
    if !spec.metrics.is_empty() {
        out.push_str("qos_metric {\n");
        for m in &spec.metrics {
            let dir = match m.sense {
                crate::qos::Sense::LowerIsBetter => "minimize",
                crate::qos::Sense::HigherIsBetter => "maximize",
            };
            if m.unit.is_empty() {
                let _ = writeln!(out, "    {} {};", m.name, dir);
            } else {
                let _ = writeln!(out, "    {} {} \"{}\";", m.name, dir, m.unit);
            }
        }
        out.push_str("}\n");
    }
    for t in &spec.tasks.tasks {
        let _ = writeln!(out, "task {} {{", t.name);
        if !t.params.is_empty() {
            let _ = writeln!(out, "    params {};", t.params.join(", "));
        }
        if !t.resources.is_empty() {
            let list: Vec<String> = t.resources.iter().map(|r| r.to_string()).collect();
            let _ = writeln!(out, "    uses {};", list.join(", "));
        }
        if !t.metrics.is_empty() {
            let _ = writeln!(out, "    yields {};", t.metrics.join(", "));
        }
        if t.guard != Guard::True {
            let _ = writeln!(out, "    guard {};", render_guard(&t.guard));
        }
        out.push_str("}\n");
    }
    for (a, b) in &spec.tasks.edges {
        let _ = writeln!(out, "edge {a} -> {b};");
    }
    for tr in &spec.transitions {
        let _ = writeln!(out, "transition on {} {{", tr.on_params.join(", "));
        for action in &tr.actions {
            match action {
                TransitionAction::NotifyHost { host, param } => {
                    let _ = writeln!(out, "    notify {host} {param};");
                }
                TransitionAction::SetLocal { name } => {
                    let _ = writeln!(out, "    set {name};");
                }
            }
        }
        if tr.guard != Guard::True {
            let _ = writeln!(out, "    guard {};", render_guard(&tr.guard));
        }
        out.push_str("}\n");
    }
    out
}

/// Render a guard expression (parenthesized conservatively).
fn render_guard(g: &Guard) -> String {
    match g {
        Guard::True => "true".into(),
        Guard::Eq(p, v) => format!("{p} == {v}"),
        Guard::Le(p, v) => format!("{p} <= {v}"),
        Guard::Ge(p, v) => format!("{p} >= {v}"),
        Guard::In(p, vs) => {
            let list: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
            format!("{p} in {{{}}}", list.join(", "))
        }
        Guard::Not(inner) => format!("not ({})", render_guard(inner)),
        Guard::And(gs) => {
            let parts: Vec<String> = gs.iter().map(|g| format!("({})", render_guard(g))).collect();
            parts.join(" and ")
        }
        Guard::Or(gs) => {
            let parts: Vec<String> = gs.iter().map(|g| format!("({})", render_guard(g))).collect();
            parts.join(" or ")
        }
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use crate::qos::Sense;

    #[test]
    fn paper_spec_roundtrips_through_render() {
        let spec = parse(ACTIVE_VIZ_SPEC).unwrap();
        let text = render(&spec);
        let back = parse(&text).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
        assert_eq!(back, spec);
    }

    #[test]
    fn guards_roundtrip_through_render() {
        let src = r#"
            control_parameters { int l in 1..5; int c in {0, 1, 2}; }
            execution_env { host h speed 0.5; }
            qos_metric { q maximize "u"; t minimize; }
            task a { params l; uses h.cpu, h.network; yields q; guard (l >= 2 and not (c == 0)) or l == 1; }
            task b { uses h.memory; yields t; guard c in {1, 2}; }
            edge a -> b;
            transition on c, l { notify h c; set buf; guard l <= 4; }
        "#;
        let spec = parse(src).unwrap();
        let text = render(&spec);
        let back = parse(&text).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
        assert_eq!(back, spec);
    }

    #[test]
    fn render_emits_expected_constructs() {
        let spec = parse(ACTIVE_VIZ_SPEC).unwrap();
        let text = render(&spec);
        assert!(text.contains("control_parameters {"));
        assert!(text.contains("enum c { lzw = 1, bzip = 2 };"));
        assert!(text.contains("int dR in {80, 160, 320};"));
        assert!(text.contains("transition on c {"));
        assert!(text.contains("notify server c;"));
    }

    #[test]
    fn render_handles_senses_and_units() {
        let spec = parse("qos_metric { a minimize; b maximize \"px\"; }").unwrap();
        assert_eq!(spec.metrics[0].sense, Sense::LowerIsBetter);
        let text = render(&spec);
        assert!(text.contains("a minimize;"));
        assert!(text.contains("b maximize \"px\";"));
        assert_eq!(parse(&text).unwrap(), spec);
    }
}
