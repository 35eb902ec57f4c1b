//! Recursive-descent parser for EQL, straight into the algebra: the
//! `WHERE` grammar builds [`Predicate`]s, `WITH` a [`Threshold`], and
//! the statement its [`LogicalPlan`] (see [`SelectStmt`]).
//!
//! ```text
//! select    := SELECT proj FROM source [WHERE cond] [WITH threshold] [';']
//! proj      := '*' | ident (',' ident)*
//! source    := join_src (UNION join_src)*
//! join_src  := primary [JOIN primary ON cond]
//! primary   := ident | '(' source ')'
//! cond      := and_cond (OR and_cond)*
//! and_cond  := unary (AND unary)*
//! unary     := NOT unary | atom
//! atom      := '(' cond ')'
//!            | ident IS set
//!            | operand cmp operand
//! set       := '{' literal (',' literal)* '}'
//! operand   := ident | literal | evidence
//! evidence  := '[' entry (',' entry)* ']'
//! entry     := (literal | set) '^' number
//! cmp       := '=' | '!=' | '<' | '<=' | '>' | '>='
//! threshold := SN '>' number | SN '>=' number | SN '=' 1 | SP '>=' number
//! ```
//!
//! A threshold that admits `sn = 0` tuples (`SN >= 0`, `SN > -1`) is
//! refused here, with the algebra's CWA_ER error, so no plan that can
//! only fail at execution is ever prepared.

use crate::ast::SelectStmt;
use crate::error::QueryError;
use crate::lexer::{tokenize, Spanned, Token};
use evirel_algebra::{AlgebraError, Operand, Predicate, ThetaOp, Threshold};
use evirel_plan::LogicalPlan;
use evirel_relation::Value;

/// Parse one `SELECT` statement into its logical plan.
///
/// # Errors
/// [`QueryError::Lex`] / [`QueryError::Parse`] with byte offsets;
/// [`AlgebraError::ThresholdNotPositive`] for a `WITH` that admits
/// `sn = 0`.
pub fn parse(input: &str) -> Result<SelectStmt, QueryError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
    };
    let plan = p.select()?;
    // Optional trailing semicolon, then EOF.
    p.eat(&Token::Semicolon);
    p.expect(Token::Eof)?;
    Ok(SelectStmt { plan })
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Consume the next token if it is `want`.
    fn eat(&mut self, want: &Token) -> bool {
        let found = self.peek() == want;
        if found {
            self.advance();
        }
        found
    }

    fn expect(&mut self, want: Token) -> Result<(), QueryError> {
        if self.eat(&want) {
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::parse(self.offset(), message)
    }

    fn ident(&mut self) -> Result<String, QueryError> {
        let Token::Ident(s) = self.peek() else {
            return Err(self.error(format!("expected identifier, found {}", self.peek())));
        };
        let s = s.clone();
        self.advance();
        Ok(s)
    }

    fn number(&mut self) -> Result<f64, QueryError> {
        let n = match self.peek() {
            Token::Int(i) => *i as f64,
            Token::Float(x) => *x,
            other => return Err(self.error(format!("expected number, found {other}"))),
        };
        self.advance();
        Ok(n)
    }

    /// `item (',' item)*`
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, QueryError>,
    ) -> Result<Vec<T>, QueryError> {
        let mut items = vec![item(self)?];
        while self.eat(&Token::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// The statement's plan: scans, ∪̃ and ⋈̃ from `FROM`, then a σ̃
    /// for `WHERE`, a membership filter for a `WITH` other than
    /// `SN > 0`, and a π̃ for a projection list.
    fn select(&mut self) -> Result<LogicalPlan, QueryError> {
        self.expect(Token::Select)?;
        let projection = if self.eat(&Token::Star) {
            None
        } else {
            Some(self.list(Self::ident)?)
        };
        self.expect(Token::From)?;
        let mut plan = self.source()?;
        if self.eat(&Token::Where) {
            plan = LogicalPlan::Select {
                input: Box::new(plan),
                predicate: self.condition()?,
                threshold: Threshold::POSITIVE,
            };
        }
        if self.eat(&Token::With) {
            let threshold = self.threshold()?;
            if threshold != Threshold::POSITIVE {
                plan = LogicalPlan::ThresholdFilter {
                    input: Box::new(plan),
                    threshold,
                };
            }
        }
        if let Some(attrs) = projection {
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                attrs,
            };
        }
        Ok(plan)
    }

    fn source(&mut self) -> Result<LogicalPlan, QueryError> {
        let mut left = self.join_source()?;
        while self.eat(&Token::Union) {
            left = LogicalPlan::Union {
                left: Box::new(left),
                right: Box::new(self.join_source()?),
            };
        }
        Ok(left)
    }

    fn join_source(&mut self) -> Result<LogicalPlan, QueryError> {
        let left = self.primary_source()?;
        if !self.eat(&Token::Join) {
            return Ok(left);
        }
        let right = self.primary_source()?;
        self.expect(Token::On)?;
        Ok(LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            on: self.condition()?,
            threshold: Threshold::POSITIVE,
        })
    }

    fn primary_source(&mut self) -> Result<LogicalPlan, QueryError> {
        if self.eat(&Token::LParen) {
            let s = self.source()?;
            self.expect(Token::RParen)?;
            Ok(s)
        } else {
            Ok(LogicalPlan::Scan {
                name: self.ident()?,
            })
        }
    }

    fn condition(&mut self) -> Result<Predicate, QueryError> {
        let mut left = self.and_condition()?;
        while self.eat(&Token::Or) {
            left = Predicate::Or(Box::new(left), Box::new(self.and_condition()?));
        }
        Ok(left)
    }

    fn and_condition(&mut self) -> Result<Predicate, QueryError> {
        let mut left = self.unary_condition()?;
        while self.eat(&Token::And) {
            left = Predicate::And(Box::new(left), Box::new(self.unary_condition()?));
        }
        Ok(left)
    }

    fn unary_condition(&mut self) -> Result<Predicate, QueryError> {
        if self.eat(&Token::Not) {
            return Ok(Predicate::Not(Box::new(self.unary_condition()?)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Predicate, QueryError> {
        if self.eat(&Token::LParen) {
            let c = self.condition()?;
            self.expect(Token::RParen)?;
            return Ok(c);
        }
        // `ident IS { … }` needs two-token lookahead.
        if matches!(self.peek(), Token::Ident(_))
            && self.tokens.get(self.pos + 1).map(|s| &s.token) == Some(&Token::Is)
        {
            let attr = self.ident()?;
            self.advance(); // IS
            let values = self.value_set()?;
            return Ok(Predicate::Is { attr, values });
        }
        let left = self.operand()?;
        let op = self.cmp_op()?;
        let right = self.operand()?;
        Ok(Predicate::Theta { left, op, right })
    }

    fn cmp_op(&mut self) -> Result<ThetaOp, QueryError> {
        let op = match self.peek() {
            Token::Eq => ThetaOp::Eq,
            Token::Ne => ThetaOp::Ne,
            Token::Lt => ThetaOp::Lt,
            Token::Le => ThetaOp::Le,
            Token::Gt => ThetaOp::Gt,
            Token::Ge => ThetaOp::Ge,
            other => return Err(self.error(format!("expected comparison operator, found {other}"))),
        };
        self.advance();
        Ok(op)
    }

    fn operand(&mut self) -> Result<Operand, QueryError> {
        match self.peek() {
            Token::Ident(_) => Ok(Operand::Attr(self.ident()?)),
            Token::Str(_) | Token::Int(_) | Token::Float(_) => Ok(Operand::Value(self.literal()?)),
            Token::LBracket => self.evidence_literal(),
            other => Err(self.error(format!("expected operand, found {other}"))),
        }
    }

    fn evidence_literal(&mut self) -> Result<Operand, QueryError> {
        self.expect(Token::LBracket)?;
        let entries = self.list(|p| {
            let values = if *p.peek() == Token::LBrace {
                p.value_set()?
            } else {
                vec![p.literal()?]
            };
            p.expect(Token::Caret)?;
            Ok((values, p.number()?))
        })?;
        self.expect(Token::RBracket)?;
        Ok(Operand::Evidence(entries))
    }

    /// `'{' literal (',' literal)* '}'`
    fn value_set(&mut self) -> Result<Vec<Value>, QueryError> {
        self.expect(Token::LBrace)?;
        let values = self.list(Self::literal)?;
        self.expect(Token::RBrace)?;
        Ok(values)
    }

    fn literal(&mut self) -> Result<Value, QueryError> {
        let value = match self.peek() {
            // Bare identifiers inside IS-sets and evidence literals
            // are domain values (the paper writes `speciality is {si}`).
            Token::Str(s) | Token::Ident(s) => Value::str(s.as_str()),
            Token::Int(i) => Value::Int(*i),
            Token::Float(x) => Value::Float(*x),
            other => return Err(self.error(format!("expected literal, found {other}"))),
        };
        self.advance();
        Ok(value)
    }

    fn threshold(&mut self) -> Result<Threshold, QueryError> {
        let threshold = if self.eat(&Token::Sn) {
            if self.eat(&Token::Gt) {
                Threshold::SnGreater(self.number()?)
            } else if self.eat(&Token::Ge) {
                Threshold::SnAtLeast(self.number()?)
            } else if self.eat(&Token::Eq) {
                if (self.number()? - 1.0).abs() >= 1e-12 {
                    return Err(self.error("only SN = 1 is supported (definite threshold)"));
                }
                Threshold::Definite
            } else {
                let found = self.peek();
                return Err(self.error(format!("expected >, >= or = after SN, found {found}")));
            }
        } else if self.eat(&Token::Sp) {
            self.expect(Token::Ge)?;
            Threshold::SpAtLeastPositive(self.number()?)
        } else {
            return Err(self.error(format!("expected SN or SP, found {}", self.peek())));
        };
        if !threshold.ensures_positive_support() {
            return Err(AlgebraError::ThresholdNotPositive {
                threshold: threshold.to_string(),
            }
            .into());
        }
        Ok(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(query: &str) -> LogicalPlan {
        parse(query).unwrap().plan
    }

    fn scan(name: &str) -> Box<LogicalPlan> {
        Box::new(LogicalPlan::Scan { name: name.into() })
    }

    /// The `WHERE` predicate of `query`, whose plan is a σ̃ over its
    /// source.
    fn predicate(query: &str) -> Predicate {
        match plan(query) {
            LogicalPlan::Select {
                predicate,
                threshold: Threshold::POSITIVE,
                ..
            } => predicate,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_paper_table2_query() {
        let is_si = Predicate::Is {
            attr: "speciality".into(),
            values: vec![Value::str("si")],
        };
        // `WITH SN > 0` is the default threshold: no membership filter.
        assert_eq!(
            plan("SELECT * FROM ra WHERE speciality IS {si} WITH SN > 0;"),
            LogicalPlan::Select {
                input: scan("ra"),
                predicate: is_si.clone(),
                threshold: Threshold::POSITIVE,
            }
        );
        assert_eq!(
            plan("SELECT rname FROM ra WHERE speciality IS {si} WITH SN > 0"),
            LogicalPlan::Project {
                input: Box::new(LogicalPlan::Select {
                    input: scan("ra"),
                    predicate: is_si,
                    threshold: Threshold::POSITIVE,
                }),
                attrs: vec!["rname".into()],
            }
        );
    }

    #[test]
    fn parses_projection_list() {
        assert_eq!(
            plan("SELECT rname, phone, speciality FROM ra"),
            LogicalPlan::Project {
                input: scan("ra"),
                attrs: vec!["rname".into(), "phone".into(), "speciality".into()],
            }
        );
        // No projection, predicate or threshold: the bare scan.
        assert_eq!(plan("SELECT * FROM ra"), *scan("ra"));
    }

    #[test]
    fn parses_union_chain() {
        // Left-associative: (ra ∪̃ rb) ∪̃ rc.
        assert_eq!(
            plan("SELECT * FROM ra UNION rb UNION rc"),
            LogicalPlan::Union {
                left: Box::new(LogicalPlan::Union {
                    left: scan("ra"),
                    right: scan("rb"),
                }),
                right: scan("rc"),
            }
        );
    }

    #[test]
    fn parses_join() {
        assert_eq!(
            plan("SELECT * FROM r JOIN rm ON R.rname = RM.rname WITH SN > 0"),
            LogicalPlan::Join {
                left: scan("r"),
                right: scan("rm"),
                on: Predicate::Theta {
                    left: Operand::Attr("R.rname".into()),
                    op: ThetaOp::Eq,
                    right: Operand::Attr("RM.rname".into()),
                },
                threshold: Threshold::POSITIVE,
            }
        );
    }

    #[test]
    fn parses_compound_conditions() {
        let is = |attr: &str, v: &str| Predicate::Is {
            attr: attr.into(),
            values: vec![Value::str(v)],
        };
        // OR binds loosest: (AND …) OR (NOT …).
        assert_eq!(
            predicate(
                "SELECT * FROM ra WHERE speciality IS {mu} AND rating IS {ex} OR NOT rating IS {avg}"
            ),
            Predicate::Or(
                Box::new(Predicate::And(
                    Box::new(is("speciality", "mu")),
                    Box::new(is("rating", "ex")),
                )),
                Box::new(Predicate::Not(Box::new(is("rating", "avg")))),
            )
        );
    }

    #[test]
    fn parses_theta_with_literals() {
        // Every comparison operator; the literal kinds are
        // `ast::tests::literal_conversion`'s.
        for (text, op) in [
            ("=", ThetaOp::Eq),
            ("!=", ThetaOp::Ne),
            ("<", ThetaOp::Lt),
            ("<=", ThetaOp::Le),
            (">", ThetaOp::Gt),
            (">=", ThetaOp::Ge),
        ] {
            assert_eq!(
                predicate(&format!("SELECT * FROM ra WHERE rating {text} 'gd'")),
                Predicate::Theta {
                    left: Operand::Attr("rating".into()),
                    op,
                    right: Operand::Value(Value::str("gd")),
                }
            );
        }
    }

    #[test]
    fn parses_evidence_literal() {
        assert_eq!(
            predicate("SELECT * FROM r WHERE n <= [{1, 4}^0.6, {2, 6}^0.4, ex^0.1]"),
            Predicate::Theta {
                left: Operand::Attr("n".into()),
                op: ThetaOp::Le,
                right: Operand::Evidence(vec![
                    (vec![Value::Int(1), Value::Int(4)], 0.6),
                    (vec![Value::Int(2), Value::Int(6)], 0.4),
                    (vec![Value::str("ex")], 0.1),
                ]),
            }
        );
    }

    #[test]
    fn parses_thresholds() {
        // Each of the four thresholds other than the default is a
        // membership filter over the source.
        for (text, threshold) in [
            ("SN > 0.5", Threshold::SnGreater(0.5)),
            ("SN >= 0.5", Threshold::SnAtLeast(0.5)),
            ("SN = 1", Threshold::Definite),
            ("SP >= 0.8", Threshold::SpAtLeastPositive(0.8)),
        ] {
            assert_eq!(
                plan(&format!("SELECT * FROM r WITH {text}")),
                LogicalPlan::ThresholdFilter {
                    input: scan("r"),
                    threshold,
                },
                "{text}"
            );
        }
        assert!(matches!(
            parse("SELECT * FROM r WITH SN = 0.5"),
            Err(QueryError::Parse { .. })
        ));
        // A threshold that admits sn = 0 violates CWA_ER.
        for text in ["SN >= 0", "SN > -1", "SN >= -0.5"] {
            let err = parse(&format!("SELECT * FROM r WITH {text}")).unwrap_err();
            assert!(
                matches!(
                    err,
                    QueryError::Algebra(AlgebraError::ThresholdNotPositive { .. })
                ),
                "{text}: {err:?}"
            );
            assert!(err.to_string().contains("violating CWA_ER"), "{err}");
        }
    }

    #[test]
    fn parenthesized_sources_and_conditions() {
        let is = |attr: &str, v: &str| Box::new(Predicate::is(attr, [v]));
        assert_eq!(
            plan("SELECT * FROM (ra UNION rb) WHERE (a IS {x} OR b IS {y}) AND c IS {z}"),
            LogicalPlan::Select {
                input: Box::new(LogicalPlan::Union {
                    left: scan("ra"),
                    right: scan("rb"),
                }),
                predicate: Predicate::And(
                    Box::new(Predicate::Or(is("a", "x"), is("b", "y"))),
                    is("c", "z"),
                ),
                threshold: Threshold::POSITIVE,
            }
        );
    }

    #[test]
    fn error_positions() {
        let err = parse("SELECT FROM r").unwrap_err();
        assert!(
            matches!(err, QueryError::Parse { offset: 7, .. }),
            "{err:?}"
        );
        // A bad threshold operator is reported where it stands.
        let err = parse("SELECT * FROM r WITH SN < 1").unwrap_err();
        assert!(
            matches!(err, QueryError::Parse { offset: 24, .. }),
            "{err:?}"
        );
        assert!(parse("SELECT * r").is_err());
        assert!(parse("SELECT * FROM r WHERE").is_err());
        assert!(parse("SELECT * FROM r extra").is_err());
    }
}
