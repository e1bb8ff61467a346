//! A scaled version of the paper's hospital scenario.
//!
//! The running example has 4 wards, 6 measurements and a handful of nurses.
//! To measure how the pieces behave as data grows (the PTIME-in-data claims
//! of Section IV, the cost of navigation, the throughput of quality
//! assessment), this module generates a hospital of configurable size that
//! keeps the *shape* of the original: a Ward → Unit → Institution hierarchy,
//! `PatientWard` / `WorkingSchedules` / `Thermometer` categorical relations,
//! a `Measurements` instance under assessment, and the same rules, EGD and
//! quality context as Example 7.

use ontodq_core::Context;
use ontodq_mdm::{
    CategoricalAttribute, CategoricalRelationSchema, DimensionInstance, DimensionSchema, MdOntology,
};
use ontodq_relational::{Database, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size parameters of the scaled hospital.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HospitalScale {
    /// Number of units; unit 0 is the "Standard"-like quality unit.
    pub units: usize,
    /// Wards per unit.
    pub wards_per_unit: usize,
    /// Number of patients.
    pub patients: usize,
    /// Number of days.
    pub days: usize,
    /// Number of measurement tuples in the instance under assessment.
    pub measurements: usize,
    /// RNG seed, so workloads are reproducible across runs.
    pub seed: u64,
}

impl HospitalScale {
    /// A small default scale (a few times the paper's example).
    pub fn small() -> Self {
        Self {
            units: 3,
            wards_per_unit: 2,
            patients: 8,
            days: 6,
            measurements: 64,
            seed: 7,
        }
    }

    /// A scale with roughly `n` measurement tuples and proportionally many
    /// dimension members — used for data-complexity sweeps.
    pub fn with_measurements(n: usize) -> Self {
        Self {
            units: 4,
            wards_per_unit: 4,
            patients: (n / 8).max(4),
            days: 30,
            measurements: n,
            seed: 7,
        }
    }
}

/// A generated scaled-hospital workload.
#[derive(Debug, Clone)]
pub struct ScaledHospital {
    /// The size parameters used.
    pub scale: HospitalScale,
    /// The multidimensional ontology (dimensions, categorical data, rules).
    pub ontology: MdOntology,
    /// The instance under assessment (a `Measurements` relation).
    pub instance: Database,
}

impl ScaledHospital {
    /// The quality-assessment context for this workload (same shape as the
    /// paper's Example 7 context).
    pub fn context(&self) -> Context {
        Context::builder(format!("scaled-hospital-{}", self.scale.measurements))
            .ontology(self.ontology.clone())
            .copy_relation("Measurements")
            .quality_predicate(
                "TakenByNurse",
                "measurements are associated with the on-duty nurse and her certification status",
                &[
                    "TakenByNurse(t, p, n, y) :- WorkingSchedules(u, d, n, y), DayTime(d, t), PatientUnit(u, d, p).",
                ],
            )
            .quality_predicate(
                "TakenWithTherm",
                "standard-care measurements are taken with brand B1 thermometers",
                &["TakenWithTherm(t, p, B1) :- PatientUnit(Unit_0, d, p), DayTime(d, t)."],
            )
            .contextual_rule(
                "MeasurementsExt(t, p, v, y, b) :- Measurements_c(t, p, v), TakenByNurse(t, p, n, y), TakenWithTherm(t, p, b).",
            )
            .quality_version(
                "Measurements",
                &[
                    "Measurements_q(t, p, v) :- MeasurementsExt(t, p, v, y, b), y = \"cert.\", b = B1.",
                ],
            )
            .build()
            .expect("the scaled-hospital context is well-formed")
    }
}

fn day_name(index: usize) -> String {
    format!("Day_{index}")
}

fn time_value(day: usize, minute_of_day: usize) -> Value {
    Value::time((day as i64) * 24 * 60 + minute_of_day as i64)
}

/// Generate a scaled hospital workload.
pub fn generate(scale: &HospitalScale) -> ScaledHospital {
    let mut rng = StdRng::seed_from_u64(scale.seed);

    // Hospital dimension.
    let hospital_schema =
        DimensionSchema::chain("Hospital", ["Ward", "Unit", "Institution", "AllHospital"]);
    let mut hospital = DimensionInstance::new(hospital_schema);
    for unit in 0..scale.units {
        let unit_name = format!("Unit_{unit}");
        for ward in 0..scale.wards_per_unit {
            let ward_name = format!("Ward_{unit}_{ward}");
            hospital
                .add_rollup("Ward", ward_name, "Unit", unit_name.clone())
                .unwrap();
        }
        hospital
            .add_rollup("Unit", unit_name, "Institution", format!("H{}", unit % 2))
            .unwrap();
    }
    for h in ["H0", "H1"] {
        hospital
            .add_rollup("Institution", h, "AllHospital", "all")
            .unwrap();
    }

    // Time dimension: minutes → days → months (one month per 30 days).
    let time_schema = DimensionSchema::chain("Time", ["Time", "Day", "Month", "AllTime"]);
    let mut time = DimensionInstance::new(time_schema);
    let minutes_per_day = [9 * 60, 12 * 60, 15 * 60, 18 * 60];
    for day in 0..scale.days {
        for minute in minutes_per_day {
            time.add_rollup("Time", time_value(day, minute), "Day", day_name(day))
                .unwrap();
        }
        time.add_rollup("Day", day_name(day), "Month", format!("Month_{}", day / 30))
            .unwrap();
    }
    for month in 0..=(scale.days.saturating_sub(1) / 30) {
        time.add_rollup("Month", format!("Month_{month}"), "AllTime", "all")
            .unwrap();
    }

    // Ontology with the categorical relations of the running example.
    let mut ontology = MdOntology::new("scaled-hospital");
    ontology.add_dimension(hospital);
    ontology.add_dimension(time);
    for schema in [
        CategoricalRelationSchema::new(
            "PatientWard",
            vec![
                CategoricalAttribute::categorical("Ward", "Hospital", "Ward"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Patient"),
            ],
        ),
        CategoricalRelationSchema::new(
            "PatientUnit",
            vec![
                CategoricalAttribute::categorical("Unit", "Hospital", "Unit"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Patient"),
            ],
        ),
        CategoricalRelationSchema::new(
            "WorkingSchedules",
            vec![
                CategoricalAttribute::categorical("Unit", "Hospital", "Unit"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Nurse"),
                CategoricalAttribute::non_categorical("Type"),
            ],
        ),
        CategoricalRelationSchema::new(
            "Shifts",
            vec![
                CategoricalAttribute::categorical("Ward", "Hospital", "Ward"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Nurse"),
                CategoricalAttribute::non_categorical("Shift"),
            ],
        ),
    ] {
        ontology.add_relation(schema);
    }

    // Each patient is in one ward per day.
    let ward_of = |rng: &mut StdRng| {
        let unit = rng.gen_range(0..scale.units);
        let ward = rng.gen_range(0..scale.wards_per_unit);
        (format!("Ward_{unit}_{ward}"), format!("Unit_{unit}"))
    };
    let mut patient_day_ward: Vec<(usize, usize, String, String)> = Vec::new();
    for patient in 0..scale.patients {
        for day in 0..scale.days {
            let (ward, unit) = ward_of(&mut rng);
            patient_day_ward.push((patient, day, ward.clone(), unit));
            ontology
                .add_tuple(
                    "PatientWard",
                    [ward, day_name(day), format!("Patient_{patient}")],
                )
                .unwrap();
        }
    }

    // One nurse per unit per day, alternating certification status.
    for unit in 0..scale.units {
        for day in 0..scale.days {
            let nurse = format!("Nurse_{unit}_{}", day % 3);
            let status = if (unit + day) % 3 == 0 {
                "non-c."
            } else {
                "cert."
            };
            ontology
                .add_tuple(
                    "WorkingSchedules",
                    [
                        format!("Unit_{unit}"),
                        day_name(day),
                        nurse,
                        status.to_string(),
                    ],
                )
                .unwrap();
        }
    }

    // Dimensional rules (7) and (8), same as the paper.
    ontology
        .add_rule_text("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).")
        .unwrap();
    ontology
        .add_rule_text("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).")
        .unwrap();

    // The instance under assessment: random measurements.
    let mut instance = Database::new();
    for _ in 0..scale.measurements {
        let (patient, day, _, _) =
            patient_day_ward[rng.gen_range(0..patient_day_ward.len())].clone();
        let minute = minutes_per_day[rng.gen_range(0..minutes_per_day.len())];
        let temperature = 36.0 + rng.gen_range(0..40) as f64 / 10.0;
        instance
            .insert(
                "Measurements",
                Tuple::new(vec![
                    time_value(day, minute),
                    Value::str(format!("Patient_{patient}")),
                    Value::double(temperature),
                ]),
            )
            .unwrap();
    }

    ScaledHospital {
        scale: scale.clone(),
        ontology,
        instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_core::assess;

    #[test]
    fn generated_workload_is_valid_and_reproducible() {
        let scale = HospitalScale::small();
        let a = generate(&scale);
        let b = generate(&scale);
        assert!(a.ontology.validate().is_ok());
        assert_eq!(
            a.instance.relation("Measurements").unwrap().len(),
            b.instance.relation("Measurements").unwrap().len()
        );
        assert_eq!(a.ontology.summary(), b.ontology.summary());
        // Duplicates may collapse, but most measurements survive.
        assert!(a.instance.relation("Measurements").unwrap().len() <= scale.measurements);
    }

    #[test]
    fn scale_accessors() {
        let big = HospitalScale::with_measurements(1000);
        assert_eq!(big.measurements, 1000);
        assert!(big.patients >= 4);
    }

    #[test]
    fn assessment_of_scaled_workload_produces_quality_subset() {
        let workload = generate(&HospitalScale::small());
        let context = workload.context();
        let result = assess(&context, &workload.instance);
        let metrics = result.metrics.relations.get("Measurements").unwrap();
        assert_eq!(
            metrics.original_count,
            workload.instance.relation("Measurements").unwrap().len()
        );
        // The quality version never adds tuples in this scenario.
        assert_eq!(metrics.added, 0);
        assert!(metrics.quality_count <= metrics.original_count);
        // Some measurements are in the quality unit with a certified nurse.
        assert!(metrics.quality_count > 0);
    }

    #[test]
    fn different_seeds_change_the_data() {
        let mut scale = HospitalScale::small();
        let a = generate(&scale);
        scale.seed = 99;
        let b = generate(&scale);
        let ta: Vec<_> = a
            .instance
            .relation("Measurements")
            .unwrap()
            .tuples()
            .to_vec();
        let tb: Vec<_> = b
            .instance
            .relation("Measurements")
            .unwrap()
            .tuples()
            .to_vec();
        assert_ne!(ta, tb);
    }
}
