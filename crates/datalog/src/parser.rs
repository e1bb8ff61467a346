//! A small text syntax for Datalog± programs.
//!
//! The syntax mirrors the paper's notation closely enough to write the
//! hospital ontology by hand:
//!
//! ```text
//! % Rule (7): upward navigation.
//! PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).
//!
//! % Rule (8): downward navigation; z is existential (not in the body).
//! Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).
//!
//! % Form (3): a dimensional negative constraint.
//! ! :- PatientWard(w, d, p), UnitWard(Intensive, w), MonthDay("August/2005", d).
//!
//! % Form (2): a dimensional EGD.
//! t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).
//!
//! % Form (1): referential constraint with a negated atom.
//! ! :- PatientUnit(u, d, p), not Unit(u).
//!
//! % A fact.
//! Unit(Standard).
//! ```
//!
//! Lexical conventions:
//! * identifiers starting with a lowercase letter or `_` are **variables**;
//! * identifiers starting with an uppercase letter are **string constants**
//!   (as are quoted strings, which may contain arbitrary characters);
//! * numeric literals are integers or doubles; `true`/`false` are booleans;
//!   `@Mon/D-HH:MM` literals are timestamps;
//! * `%` starts a line comment;
//! * rules end with a period.

use crate::atom::{Atom, CompareOp, Comparison, Conjunction};
use crate::program::Program;
use crate::rule::{ConditionalDelete, Egd, Fact, NegativeConstraint, Retraction, Rule, Tgd};
use crate::term::Term;
use ontodq_relational::Value;
use std::fmt;

/// A parse error with (1-based) line information where available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub(crate) message: String,
    /// The offending rule text (trimmed), if known.
    pub(crate) rule_text: Option<String>,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            rule_text: None,
        }
    }

    fn in_rule(mut self, rule: &str) -> Self {
        self.rule_text = Some(rule.trim().to_string());
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.rule_text {
            Some(rule) => write!(f, "{} (in rule: {rule})", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Tokens of the rule language.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Quoted(String),
    Number(String),
    Time(String),
    LParen,
    RParen,
    Comma,
    Implies, // :-
    Period,
    Bang,
    Minus, // '-' not followed by a digit: starts a retraction / delete rule
    Not,
    Op(CompareOp),
}

fn tokenize(text: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '%' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Period);
                i += 1;
            }
            ':' => {
                if chars.get(i + 1) == Some(&'-') {
                    tokens.push(Token::Implies);
                    i += 2;
                } else {
                    return Err(ParseError::new("expected '-' after ':'"));
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Op(CompareOp::Le));
                    i += 2;
                } else {
                    tokens.push(Token::Op(CompareOp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Op(CompareOp::Ge));
                    i += 2;
                } else {
                    tokens.push(Token::Op(CompareOp::Gt));
                    i += 1;
                }
            }
            '=' => {
                tokens.push(Token::Op(CompareOp::Eq));
                i += 1;
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Op(CompareOp::Neq));
                    i += 2;
                } else {
                    tokens.push(Token::Bang);
                    i += 1;
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    s.push(chars[i]);
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(ParseError::new("unterminated string literal"));
                }
                i += 1; // closing quote
                tokens.push(Token::Quoted(s));
            }
            '@' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || matches!(chars[i], '/' | '-' | ':'))
                {
                    s.push(chars[i]);
                    i += 1;
                }
                tokens.push(Token::Time(s));
            }
            '-' if !chars
                .get(i + 1)
                .map(|c| c.is_ascii_digit())
                .unwrap_or(false) =>
            {
                tokens.push(Token::Minus);
                i += 1;
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    // Periods terminate rules; only treat '.' as part of a
                    // number when followed by a digit.
                    if chars[i] == '.'
                        && !chars
                            .get(i + 1)
                            .map(|c| c.is_ascii_digit())
                            .unwrap_or(false)
                    {
                        break;
                    }
                    s.push(chars[i]);
                    i += 1;
                }
                tokens.push(Token::Number(s));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '\'')
                {
                    s.push(chars[i]);
                    i += 1;
                }
                if s == "not" {
                    tokens.push(Token::Not);
                } else {
                    tokens.push(Token::Ident(s));
                }
            }
            other => {
                return Err(ParseError::new(format!("unexpected character '{other}'")));
            }
        }
    }
    Ok(tokens)
}

/// Parser state over a token stream.
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Self { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, token: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if &t == token => Ok(()),
            other => Err(ParseError::new(format!(
                "expected {token:?}, found {other:?}"
            ))),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Parse a term from an already-consumed leading token.
    fn term_from(&mut self, token: Token) -> Result<Term, ParseError> {
        match token {
            Token::Ident(name) => {
                let first = name.chars().next().unwrap_or('x');
                if first.is_ascii_lowercase() || first == '_' {
                    if name == "true" || name == "false" {
                        Ok(Term::constant(Value::bool(name == "true")))
                    } else {
                        Ok(Term::var(name))
                    }
                } else {
                    Ok(Term::constant(Value::str(name)))
                }
            }
            Token::Quoted(s) => Ok(Term::constant(Value::str(s))),
            Token::Number(s) => {
                if let Ok(i) = s.parse::<i64>() {
                    Ok(Term::constant(Value::int(i)))
                } else if let Ok(d) = s.parse::<f64>() {
                    Ok(Term::constant(Value::double(d)))
                } else {
                    Err(ParseError::new(format!("bad numeric literal '{s}'")))
                }
            }
            Token::Time(s) => Value::parse_time(&s)
                .map(Term::constant)
                .ok_or_else(|| ParseError::new(format!("bad time literal '@{s}'"))),
            other => Err(ParseError::new(format!("expected a term, found {other:?}"))),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let token = self
            .next()
            .ok_or_else(|| ParseError::new("unexpected end of input, expected a term"))?;
        self.term_from(token)
    }

    /// Parse `Pred(t1, …, tn)` where the predicate ident has already been
    /// consumed.
    fn atom_with_name(&mut self, name: String) -> Result<Atom, ParseError> {
        self.expect(&Token::LParen)?;
        let mut terms = Vec::new();
        if self.peek() == Some(&Token::RParen) {
            self.next();
            return Ok(Atom::new(name, terms));
        }
        loop {
            terms.push(self.term()?);
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => {
                    return Err(ParseError::new(format!(
                        "expected ',' or ')' in atom argument list, found {other:?}"
                    )))
                }
            }
        }
        Ok(Atom::new(name, terms))
    }

    /// Parse a body literal starting at the current token and add it to the
    /// conjunction.
    fn body_literal(&mut self, conj: &mut Conjunction) -> Result<(), ParseError> {
        if self.peek() == Some(&Token::Not) {
            self.next();
            match self.next() {
                Some(Token::Ident(name)) => {
                    let atom = self.atom_with_name(name)?;
                    conj.negated.push(atom);
                    Ok(())
                }
                other => Err(ParseError::new(format!(
                    "expected an atom after 'not', found {other:?}"
                ))),
            }
        } else {
            let first = self
                .next()
                .ok_or_else(|| ParseError::new("unexpected end of body"))?;
            // Either an atom `Ident(...)` or a comparison `term op term`.
            if let Token::Ident(name) = &first {
                if self.peek() == Some(&Token::LParen) {
                    let atom = self.atom_with_name(name.clone())?;
                    conj.atoms.push(atom);
                    return Ok(());
                }
            }
            let left = self.term_from(first)?;
            match self.next() {
                Some(Token::Op(op)) => {
                    let right = self.term()?;
                    conj.comparisons.push(Comparison::new(left, op, right));
                    Ok(())
                }
                other => Err(ParseError::new(format!(
                    "expected a comparison operator, found {other:?}"
                ))),
            }
        }
    }

    fn body(&mut self) -> Result<Conjunction, ParseError> {
        let mut conj = Conjunction::empty();
        loop {
            self.body_literal(&mut conj)?;
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::Period) => break,
                other => {
                    return Err(ParseError::new(format!(
                        "expected ',' or '.' after body literal, found {other:?}"
                    )))
                }
            }
        }
        Ok(conj)
    }

    /// Parse one rule.
    fn rule(&mut self) -> Result<Rule, ParseError> {
        // `! :- body.` — negative constraint.
        if self.peek() == Some(&Token::Bang) {
            self.next();
            self.expect(&Token::Implies)?;
            let body = self.body()?;
            return Ok(Rule::Constraint(NegativeConstraint::new(body)));
        }
        // `-P(ā).` — ground retraction; `-P(x̄) :- body.` — conditional
        // delete.
        if self.peek() == Some(&Token::Minus) {
            self.next();
            let atom = match self.next() {
                Some(Token::Ident(name)) => self.atom_with_name(name)?,
                other => {
                    return Err(ParseError::new(format!(
                        "expected an atom after '-', found {other:?}"
                    )))
                }
            };
            return match self.next() {
                Some(Token::Period) => Retraction::new(atom).map(Rule::Retract).ok_or_else(|| {
                    ParseError::new(
                        "a bare retraction must be ground (use '-P(x) :- body.' to \
                             delete by condition)",
                    )
                }),
                Some(Token::Implies) => {
                    let body = self.body()?;
                    Ok(Rule::Delete(ConditionalDelete::new(body, atom)))
                }
                other => Err(ParseError::new(format!(
                    "expected '.' or ':-' after retraction head, found {other:?}"
                ))),
            };
        }
        // Otherwise the rule starts with a term or an atom.
        let first = self
            .next()
            .ok_or_else(|| ParseError::new("unexpected end of rule"))?;
        if let Token::Ident(name) = &first {
            if self.peek() == Some(&Token::LParen) {
                // Atom: either a fact, a TGD head, or a conjunctive head.
                let mut heads = vec![self.atom_with_name(name.clone())?];
                loop {
                    match self.next() {
                        Some(Token::Period) => {
                            // A fact (or conjunction of facts).
                            if heads.len() == 1 && heads[0].is_ground() {
                                let atom = heads.pop().expect("length checked above");
                                let fact = Fact::new(atom).expect("groundness checked above");
                                return Ok(Rule::Fact(fact));
                            }
                            return Err(ParseError::new(
                                "headless non-ground atom list is not a valid rule",
                            ));
                        }
                        Some(Token::Comma) => match self.next() {
                            Some(Token::Ident(next_name)) => {
                                heads.push(self.atom_with_name(next_name)?);
                            }
                            other => {
                                return Err(ParseError::new(format!(
                                    "expected an atom in conjunctive head, found {other:?}"
                                )))
                            }
                        },
                        Some(Token::Implies) => {
                            let body = self.body()?;
                            if !body.negated.is_empty() {
                                return Err(ParseError::new(
                                    "a TGD body cannot hold 'not' (negation is allowed in \
                                     constraints, conditional deletes and queries)",
                                ));
                            }
                            return Ok(Rule::Tgd(Tgd::with_heads(
                                body.atoms,
                                body.comparisons,
                                heads,
                            )));
                        }
                        other => {
                            return Err(ParseError::new(format!(
                                "expected '.', ',' or ':-' after head atom, found {other:?}"
                            )))
                        }
                    }
                }
            }
        }
        // EGD: `x = y :- body.`
        let left = self.term_from(first)?;
        match self.next() {
            Some(Token::Op(CompareOp::Eq)) => {
                let right = self.term()?;
                self.expect(&Token::Implies)?;
                let body = self.body()?;
                match (left, right) {
                    (Term::Var(l), Term::Var(r)) => Ok(Rule::Egd(Egd::new(body, l, r))),
                    _ => Err(ParseError::new(
                        "EGD heads must equate two variables (use a comparison in a constraint body otherwise)",
                    )),
                }
            }
            other => Err(ParseError::new(format!(
                "expected '=' in EGD head, found {other:?}"
            ))),
        }
    }
}

/// Parse a single rule from text (the trailing period is required).
pub fn parse_rule(text: &str) -> Result<Rule, ParseError> {
    let tokens = tokenize(text).map_err(|e| e.in_rule(text))?;
    let mut parser = Parser::new(tokens);
    let rule = parser.rule().map_err(|e| e.in_rule(text))?;
    if !parser.at_end() {
        return Err(ParseError::new("trailing tokens after rule").in_rule(text));
    }
    Ok(rule)
}

/// Parse a whole program (any number of rules separated by whitespace and
/// `%`-comments).
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(text)?;
    let mut parser = Parser::new(tokens);
    let mut program = Program::new();
    while !parser.at_end() {
        let rule = parser.rule()?;
        program.add_rule(rule);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Variable;

    #[test]
    fn parse_upward_rule_7() {
        let rule =
            parse_rule("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).").unwrap();
        match rule {
            Rule::Tgd(t) => {
                assert_eq!(t.head.len(), 1);
                assert_eq!(t.head[0].predicate, "PatientUnit");
                assert_eq!(t.body().atoms.len(), 2);
                assert!(t.is_full());
            }
            other => panic!("expected TGD, got {other:?}"),
        }
    }

    #[test]
    fn parse_downward_rule_8_has_existential() {
        let rule =
            parse_rule("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).")
                .unwrap();
        match rule {
            Rule::Tgd(t) => {
                assert_eq!(
                    t.existential_variables(),
                    std::iter::once(Variable::new("z")).collect()
                );
            }
            other => panic!("expected TGD, got {other:?}"),
        }
    }

    #[test]
    fn parse_conjunctive_head_rule_9() {
        let rule = parse_rule(
            "InstitutionUnit(i, u), PatientUnit(u, d, p) :- DischargePatients(i, d, p).",
        )
        .unwrap();
        match rule {
            Rule::Tgd(t) => {
                assert_eq!(t.head.len(), 2);
                assert_eq!(
                    t.existential_variables(),
                    std::iter::once(Variable::new("u")).collect()
                );
            }
            other => panic!("expected TGD, got {other:?}"),
        }
    }

    #[test]
    fn parse_negative_constraint_with_negation() {
        let rule = parse_rule("! :- PatientUnit(u, d, p), not Unit(u).").unwrap();
        match rule {
            Rule::Constraint(nc) => {
                assert_eq!(nc.body.atoms.len(), 1);
                assert_eq!(nc.body.negated.len(), 1);
                assert_eq!(nc.body.negated[0].predicate, "Unit");
            }
            other => panic!("expected constraint, got {other:?}"),
        }
    }

    #[test]
    fn parse_egd_rule_6() {
        let rule = parse_rule(
            "t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).",
        )
        .unwrap();
        match rule {
            Rule::Egd(e) => {
                assert_eq!(e.left, Variable::new("t"));
                assert_eq!(e.right, Variable::new("t2"));
                assert_eq!(e.body.atoms.len(), 4);
                assert!(e.is_well_formed());
            }
            other => panic!("expected EGD, got {other:?}"),
        }
    }

    #[test]
    fn parse_fact_and_constants() {
        let rule = parse_rule("UnitWard(Standard, W1).").unwrap();
        match rule {
            Rule::Fact(f) => {
                assert_eq!(f.atom().predicate, "UnitWard");
                assert!(f.atom().is_ground());
            }
            other => panic!("expected fact, got {other:?}"),
        }
    }

    #[test]
    fn parse_literals_of_every_kind() {
        let rule = parse_rule(
            r#"Q(t, p, v) :- Measurements(t, p, v), p = "Tom Waits", t >= @Sep/5-11:45, t <= @Sep/5-12:15, v > 37, ok = true."#,
        )
        .unwrap();
        match rule {
            Rule::Tgd(t) => {
                assert_eq!(t.body().comparisons.len(), 5);
                let time_cmp = &t.body().comparisons[1];
                assert_eq!(time_cmp.op, CompareOp::Ge);
                assert!(matches!(time_cmp.right, Term::Const(Value::Time(_))));
                let bool_cmp = &t.body().comparisons[4];
                assert_eq!(bool_cmp.right, Term::constant(Value::bool(true)));
            }
            other => panic!("expected TGD, got {other:?}"),
        }
    }

    #[test]
    fn parse_numbers() {
        let rule = parse_rule("R(x) :- S(x, 42, 3.5, -7).").unwrap();
        match rule {
            Rule::Tgd(t) => {
                let atom = &t.body().atoms[0];
                assert_eq!(atom.terms[1], Term::constant(Value::int(42)));
                assert_eq!(atom.terms[2], Term::constant(Value::double(3.5)));
                assert_eq!(atom.terms[3], Term::constant(Value::int(-7)));
            }
            other => panic!("expected TGD, got {other:?}"),
        }
    }

    #[test]
    fn parse_program_with_comments() {
        let program = parse_program(
            "% the hospital ontology\n\
             PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             % referential constraint\n\
             ! :- PatientUnit(u, d, p), not Unit(u).\n\
             Unit(Standard).\n",
        )
        .unwrap();
        assert_eq!(program.tgds.len(), 1);
        assert_eq!(program.constraints.len(), 1);
        assert_eq!(program.facts.len(), 1);
        assert!(program.validate().is_empty());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_rule("PatientUnit(u, d, p :- X(u).").is_err());
        assert!(parse_rule("PatientUnit(u, d, p)").is_err()); // missing period
        assert!(parse_rule("x y :- P(x).").is_err());
        assert!(parse_rule("\"unterminated :- P(x).").is_err());
        assert!(parse_rule("R(x) :- S(x), x ? y.").is_err());
        // Non-ground "fact".
        assert!(parse_rule("R(x).").is_err());
        // EGD equating a variable with a constant is rejected.
        assert!(parse_rule("x = B1 :- R(x).").is_err());
        // A TGD body cannot hold negation.
        let negated = parse_rule("Q(x) :- P(x), not R(x).").unwrap_err();
        assert!(negated.to_string().contains("'not'"), "{negated}");
    }

    #[test]
    fn parse_ground_retraction() {
        let rule = parse_rule("-WorkingSchedules(Intensive, \"Sep/5\", Cathy, \"cert\").").unwrap();
        match rule {
            Rule::Retract(r) => {
                assert_eq!(r.atom().predicate, "WorkingSchedules");
                assert_eq!(r.atom().arity(), 4);
                assert!(r.atom().is_ground());
            }
            other => panic!("expected retraction, got {other:?}"),
        }
    }

    #[test]
    fn parse_conditional_delete_with_wildcard_head() {
        let rule = parse_rule("-Edge(x, y) :- Banned(x).").unwrap();
        match rule {
            Rule::Delete(d) => {
                assert_eq!(d.head.predicate, "Edge");
                assert_eq!(d.body.atoms.len(), 1);
                assert_eq!(
                    d.wildcard_variables(),
                    std::iter::once(Variable::new("y")).collect()
                );
            }
            other => panic!("expected conditional delete, got {other:?}"),
        }
    }

    #[test]
    fn parse_conditional_delete_with_negation_and_comparison() {
        let rule =
            parse_rule("-Shifts(w, d, n, z) :- Shifts(w, d, n, z), not Unit(w), d = \"Sep/5\".")
                .unwrap();
        match rule {
            Rule::Delete(d) => {
                assert_eq!(d.body.negated.len(), 1);
                assert_eq!(d.body.comparisons.len(), 1);
                assert!(d.wildcard_variables().is_empty());
            }
            other => panic!("expected conditional delete, got {other:?}"),
        }
    }

    #[test]
    fn retraction_does_not_shadow_negative_numbers() {
        // '-' directly before a digit still lexes as a negative literal.
        let rule = parse_rule("R(x) :- S(x, -7).").unwrap();
        match rule {
            Rule::Tgd(t) => {
                assert_eq!(t.body().atoms[0].terms[1], Term::constant(Value::int(-7)));
            }
            other => panic!("expected TGD, got {other:?}"),
        }
    }

    #[test]
    fn retraction_parse_errors() {
        // Non-ground bare retraction.
        assert!(parse_rule("-R(x).").is_err());
        // '-' must be followed by an atom.
        assert!(parse_rule("- :- R(x).").is_err());
        // Missing terminator.
        assert!(parse_rule("-R(A)").is_err());
    }

    #[test]
    fn parse_program_with_retractions() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             -E(A, B).\n\
             -E(x, y) :- Banned(x).\n",
        )
        .unwrap();
        assert_eq!(program.tgds.len(), 1);
        assert_eq!(program.retractions.len(), 1);
        assert_eq!(program.deletions.len(), 1);
        assert!(program.validate().is_empty());
        assert_eq!(program.rule_count(), 3);
    }

    #[test]
    fn print_then_parse_round_trips() {
        let texts = [
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).",
            "! :- PatientUnit(u, d, p), not Unit(u).",
            "t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).",
            "UnitWard(Standard, W1).",
            "-UnitWard(Standard, W1).",
            "-Edge(x, y) :- Banned(x), not Whitelisted(x).",
        ];
        for text in texts {
            let rule = parse_rule(text).unwrap();
            let printed = rule.to_string();
            let reparsed = parse_rule(&printed).unwrap();
            assert_eq!(rule, reparsed, "round-trip failed for {text}");
        }
    }

    #[test]
    fn quoted_lowercase_strings_stay_constants() {
        let rule = parse_rule(r#"R(x) :- S(x, "standard")."#).unwrap();
        match rule {
            Rule::Tgd(t) => {
                assert_eq!(t.body().atoms[0].terms[1], Term::constant("standard"));
            }
            other => panic!("expected TGD, got {other:?}"),
        }
    }
}
