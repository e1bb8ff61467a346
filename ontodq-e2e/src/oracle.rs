//! The answer oracle: what the server says is compared with what the
//! pipeline computes from scratch, in this process, on the same data.

use crate::stream::Class;
use crate::wire::Conn;
use ontodq_core::Context;
use ontodq_relational::Database;
use ontodq_workload::{generate, HospitalScale, ScaledHospital};
use std::io;

/// The data a server started with `--scale N` registers as `scaled`: the
/// generator seed (7) is fixed in `HospitalScale::with_measurements`, so
/// regenerating here gives the same instance.
pub fn scaled_hospital(scale: usize) -> ScaledHospital {
    generate(&HospitalScale::with_measurements(scale * 100))
}

/// An acknowledged write: its class and its facts.
pub type Acked = (Class, Vec<String>);

/// The instance under assessment as the acknowledged writes left it.
pub struct Model {
    context: Context,
    instance: Database,
    applied: usize,
}

impl Model {
    pub fn new(hospital: &ScaledHospital) -> Model {
        Model {
            context: hospital.context(),
            instance: hospital.instance.clone(),
            applied: 0,
        }
    }

    /// Fold in the acknowledged writes not seen yet.
    pub fn catch_up(&mut self, acked: &[Acked]) -> Result<(), String> {
        for (class, facts) in &acked[self.applied..] {
            for fact in facts {
                let parsed = ontodq_server::parse_facts(fact).map_err(|e| e.to_string())?;
                for (relation, tuple) in parsed {
                    if *class == Class::Commit {
                        self.instance
                            .insert(&relation, tuple)
                            .map_err(|e| e.to_string())?;
                    } else {
                        self.instance.delete(&relation, &tuple);
                    }
                }
            }
        }
        self.applied = acked.len();
        Ok(())
    }

    /// The quality version of `Measurements`, assessed from scratch, as the
    /// sorted answer lines `?q- Measurements(t, p, v).` must print.
    pub fn expected_answers(&self) -> Vec<String> {
        let result = ontodq_core::assess(&self.context, &self.instance);
        let mut lines: Vec<String> = result
            .quality_tuples("Measurements")
            .iter()
            .map(|tuple| tuple.to_string())
            .collect();
        lines.sort();
        lines
    }

    /// Compare the server's answer lines with [`Model::expected_answers`].
    pub fn check(&self, what: &str, mut answers: Vec<String>) -> Result<(), String> {
        answers.sort();
        let expected = self.expected_answers();
        if answers == expected {
            return Ok(());
        }
        let missing = expected.iter().filter(|l| !answers.contains(l)).count();
        let extra = answers.iter().filter(|l| !expected.contains(l)).count();
        Err(format!(
            "{what}: the quality version differs from a from-scratch assessment \
             ({} rows served, {} expected, {missing} missing, {extra} unexpected)",
            answers.len(),
            expected.len()
        ))
    }
}

/// `?q-` and `?d-` of the same body must return the same answer set.
pub fn check_q_equals_d(conn: &mut Conn, lines: &[String]) -> io::Result<Result<(), String>> {
    for line in lines {
        let body = line
            .trim_end()
            .split_once(' ')
            .map(|(_, body)| body)
            .unwrap_or(line);
        let mut materialized = conn.expect_ok(&format!("?q- {body}"))?.data;
        let mut demanded = conn.expect_ok(&format!("?d- {body}"))?.data;
        materialized.sort();
        demanded.sort();
        if materialized != demanded {
            let only = |a: &[String], b: &[String]| -> Vec<String> {
                a.iter()
                    .filter(|row| !b.contains(row))
                    .take(3)
                    .cloned()
                    .collect()
            };
            return Ok(Err(format!(
                "?q- and ?d- disagree on `{body}`: {} vs {} answers; only ?q-: {:?}; only ?d-: {:?}",
                materialized.len(),
                demanded.len(),
                only(&materialized, &demanded),
                only(&demanded, &materialized),
            )));
        }
    }
    Ok(Ok(()))
}
