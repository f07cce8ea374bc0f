//! The Simulator (§3.2): teacher-student replacement of expensive modules.
//!
//! "Because each module is treated as a black-box function, an ML-based
//! simulator can replicate the target module through supervised learning.
//! The target module will function as intended during initialization, and a
//! control logic will decide when the simulated version should take over."
//!
//! The wrapped (teacher) module keeps serving while the student observes
//! live traffic; once enough samples accumulate and the student clears an
//! accuracy bar on a holdout, it takes over the *confident* inputs. Low-
//! confidence inputs still go to the teacher — and keep feeding training
//! data, so the student continuously adapts to the stream ("it can
//! constantly learn to adapt to the data distribution").

use crate::context::ExecContext;
use crate::data::Data;
use crate::error::CoreError;
use crate::modules::{Module, ModuleKind};
use lingua_ml::features::HashingVectorizer;
use lingua_ml::logreg::{LogReg, LogRegConfig};
use lingua_ml::naive_bayes::NaiveBayes;
use lingua_ml::Example;

/// What kind of function the student learns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudentKind {
    /// Teacher returns `Data::Bool` (e.g. "is this phrase a person name?").
    Binary,
    /// Teacher returns `Data::Str` from a closed-ish set (e.g. a language
    /// code or a manufacturer).
    Categorical,
}

/// Control-logic knobs.
#[derive(Debug, Clone)]
pub struct SimulatorConfig {
    /// Samples required before the first training attempt.
    pub min_samples: usize,
    /// Fraction of the buffer held out for the takeover check.
    pub holdout_fraction: f64,
    /// Holdout accuracy required for takeover.
    pub takeover_accuracy: f64,
    /// Student confidence below which the teacher still serves the input.
    pub confidence_threshold: f64,
    /// Teacher samples between retraining attempts (continuous learning).
    pub retrain_interval: usize,
    /// Hashing-vectorizer dimensions for the binary student.
    pub feature_dims: usize,
    pub seed: u64,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            min_samples: 40,
            holdout_fraction: 0.25,
            takeover_accuracy: 0.88,
            confidence_threshold: 0.60,
            retrain_interval: 50,
            feature_dims: 512,
            seed: 0,
        }
    }
}

/// Call accounting for the cost comparison the paper motivates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulatorStats {
    pub teacher_calls: u64,
    pub student_calls: u64,
    pub trainings: u64,
    /// Teacher-call count at which the student took over (if it has).
    pub takeover_at: Option<u64>,
}

enum Student {
    Binary { model: LogReg, vectorizer: HashingVectorizer },
    Categorical { model: NaiveBayes },
}

#[derive(Debug, Clone, PartialEq)]
enum Label {
    Bool(bool),
    Class(String),
}

/// A module wrapped with the simulator.
pub struct Simulated {
    name: String,
    teacher: Box<dyn Module>,
    kind: StudentKind,
    config: SimulatorConfig,
    stats: SimulatorStats,
    buffer: Vec<(String, Label)>,
    student: Option<Student>,
    samples_at_last_training: usize,
}

impl Simulated {
    pub fn new(teacher: Box<dyn Module>, kind: StudentKind, config: SimulatorConfig) -> Simulated {
        Simulated {
            name: format!("simulated({})", teacher.name()),
            teacher,
            kind,
            config,
            stats: SimulatorStats::default(),
            buffer: Vec::new(),
            student: None,
            samples_at_last_training: 0,
        }
    }

    pub fn stats(&self) -> SimulatorStats {
        self.stats
    }

    pub fn has_taken_over(&self) -> bool {
        self.student.is_some()
    }

    fn student_predict(&self, text: &str) -> Option<(Data, f64)> {
        match self.student.as_ref()? {
            Student::Binary { model, vectorizer } => {
                let p = model.predict_proba(&binary_features(vectorizer, text));
                let confidence = (2.0 * p - 1.0).abs();
                Some((Data::Bool(p >= 0.5), confidence))
            }
            Student::Categorical { model } => {
                let (class, posterior) = model.predict(text);
                Some((Data::Str(class.to_string()), posterior))
            }
        }
    }

    /// Train a candidate student and check it on a holdout; install on pass.
    fn try_train(&mut self, tracer: &lingua_trace::Tracer) {
        self.stats.trainings += 1;
        self.samples_at_last_training = self.buffer.len();
        // Deterministic interleaved split: every 4th sample is holdout (for
        // holdout_fraction 0.25); stable under stream growth.
        let holdout_every = (1.0 / self.config.holdout_fraction.max(0.01)).round() as usize;
        let mut train = Vec::new();
        let mut holdout = Vec::new();
        for (i, sample) in self.buffer.iter().enumerate() {
            if holdout_every > 1 && i % holdout_every == holdout_every - 1 {
                holdout.push(sample);
            } else {
                train.push(sample);
            }
        }
        if train.is_empty() || holdout.is_empty() {
            return;
        }

        let candidate = match self.kind {
            StudentKind::Binary => {
                let vectorizer = HashingVectorizer::new(self.config.feature_dims);
                let examples: Vec<Example> = train
                    .iter()
                    .filter_map(|(text, label)| match label {
                        Label::Bool(b) => {
                            Some(Example::new(binary_features(&vectorizer, text), usize::from(*b)))
                        }
                        Label::Class(_) => None,
                    })
                    .collect();
                if examples.is_empty() {
                    return;
                }
                let model = LogReg::train(
                    &examples,
                    &LogRegConfig {
                        seed: self.config.seed,
                        epochs: 80,
                        learning_rate: 0.8,
                        ..Default::default()
                    },
                );
                Student::Binary { model, vectorizer }
            }
            StudentKind::Categorical => {
                let pairs: Vec<(&str, &str)> = train
                    .iter()
                    .filter_map(|(text, label)| match label {
                        Label::Class(c) => Some((text.as_str(), c.as_str())),
                        Label::Bool(_) => None,
                    })
                    .collect();
                if pairs.is_empty() {
                    return;
                }
                Student::Categorical { model: NaiveBayes::train(pairs) }
            }
        };

        // Holdout evaluation.
        let mut correct = 0usize;
        for sample in &holdout {
            let (text, label) = (&sample.0, &sample.1);
            let predicted = match &candidate {
                Student::Binary { model, vectorizer } => {
                    Label::Bool(model.predict(&binary_features(vectorizer, text)))
                }
                Student::Categorical { model } => Label::Class(model.predict(text).0.to_string()),
            };
            if predicted == *label {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / holdout.len() as f64;
        let installed = accuracy >= self.config.takeover_accuracy;
        tracer.instant(lingua_trace::SpanKind::Simulator, "training", || {
            vec![
                ("samples".into(), self.buffer.len().to_string()),
                ("holdout_accuracy".into(), format!("{accuracy:.4}")),
                ("installed".into(), installed.to_string()),
            ]
        });
        if installed {
            if self.student.is_none() {
                self.stats.takeover_at = Some(self.stats.teacher_calls);
                tracer.instant(lingua_trace::SpanKind::Simulator, "takeover", || {
                    vec![("teacher_calls".into(), self.stats.teacher_calls.to_string())]
                });
            }
            self.student = Some(candidate);
        }
    }
}

/// Features for the binary student: hashed token counts plus cheap text-shape
/// signals (token count, capitalization pattern, digits, length) that token
/// hashing alone cannot generalize from — e.g. "two capitalized tokens" is
/// exactly the shape of an unseen person name.
fn binary_features(vectorizer: &HashingVectorizer, text: &str) -> Vec<f64> {
    let mut features = vectorizer.transform(text);
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let n = tokens.len().max(1) as f64;
    let capitalized = tokens
        .iter()
        .filter(|t| t.chars().next().map(|c| c.is_uppercase()).unwrap_or(false))
        .count() as f64;
    let has_digit = text.chars().any(|c| c.is_ascii_digit());
    let avg_len = tokens.iter().map(|t| t.chars().count()).sum::<usize>() as f64 / n;
    features.push((tokens.len() as f64 / 5.0).min(2.0));
    features.push(capitalized / n);
    features.push(f64::from(has_digit));
    features.push((avg_len / 10.0).min(2.0));
    features
}

impl Module for Simulated {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Decorated
    }

    fn invoke(&mut self, input: Data, ctx: &mut ExecContext) -> Result<Data, CoreError> {
        let text = input.render();

        // Confident student answers bypass the teacher entirely.
        if let Some((prediction, confidence)) = self.student_predict(&text) {
            if confidence >= self.config.confidence_threshold {
                self.stats.student_calls += 1;
                ctx.tracer.instant(lingua_trace::SpanKind::Simulator, "student_serve", || {
                    vec![("confidence".into(), format!("{confidence:.4}"))]
                });
                return Ok(prediction);
            }
        }

        // Teacher serves; its answer becomes training signal.
        let output = self.teacher.invoke(input, ctx)?;
        self.stats.teacher_calls += 1;
        ctx.tracer.instant(lingua_trace::SpanKind::Simulator, "teacher_serve", Vec::new);
        let label = match (&output, self.kind) {
            (Data::Bool(b), StudentKind::Binary) => Some(Label::Bool(*b)),
            (Data::Str(s), StudentKind::Categorical) => Some(Label::Class(s.clone())),
            _ => None, // unlearnable output shape: serve but don't learn
        };
        if let Some(label) = label {
            self.buffer.push((text, label));
            let due_first = self.student.is_none() && self.buffer.len() >= self.config.min_samples;
            let due_refresh = self.buffer.len()
                >= self.samples_at_last_training + self.config.retrain_interval
                && self.samples_at_last_training > 0;
            if due_first || due_refresh {
                let tracer = ctx.tracer.clone();
                self.try_train(&tracer);
            }
        }
        Ok(output)
    }

    fn describe(&self) -> String {
        format!(
            "simulator over `{}` ({} teacher / {} student calls)",
            self.teacher.name(),
            self.stats.teacher_calls,
            self.stats.student_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::CustomModule;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(9);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 9)))
    }

    /// A deterministic "teacher": says yes iff the text contains "badger".
    fn keyword_teacher() -> Box<dyn Module> {
        Box::new(CustomModule::new("keyword", |input, _| {
            Ok(Data::Bool(input.render().contains("badger")))
        }))
    }

    fn stream(n: usize) -> Vec<Data> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Data::Str(format!("the hoppy badger beer number {i}"))
                } else {
                    Data::Str(format!("an unrelated gadget item number {i}"))
                }
            })
            .collect()
    }

    #[test]
    fn student_takes_over_after_enough_samples() {
        let mut ctx = ctx();
        let mut sim = Simulated::new(
            keyword_teacher(),
            StudentKind::Binary,
            SimulatorConfig { min_samples: 30, ..Default::default() },
        );
        for input in stream(200) {
            sim.invoke(input, &mut ctx).unwrap();
        }
        let stats = sim.stats();
        assert!(sim.has_taken_over());
        assert!(stats.student_calls > 100, "{stats:?}");
        assert!(stats.teacher_calls < 100, "{stats:?}");
        assert!(stats.takeover_at.is_some());
    }

    #[test]
    fn student_answers_match_the_teacher() {
        let mut ctx = ctx();
        let mut sim = Simulated::new(
            keyword_teacher(),
            StudentKind::Binary,
            SimulatorConfig { min_samples: 30, ..Default::default() },
        );
        for input in stream(100) {
            sim.invoke(input, &mut ctx).unwrap();
        }
        assert!(sim.has_taken_over());
        // Evaluate agreement on fresh data.
        let mut agree = 0;
        let fresh = stream(60);
        for input in &fresh {
            let out = sim.invoke(input.clone(), &mut ctx).unwrap();
            let truth = Data::Bool(input.render().contains("badger"));
            if out == truth {
                agree += 1;
            }
        }
        assert!(agree as f64 / fresh.len() as f64 > 0.9, "{agree}/{}", fresh.len());
    }

    #[test]
    fn categorical_student_learns_classes() {
        let mut ctx = ctx();
        let teacher = Box::new(CustomModule::new("lang", |input, _| {
            let text = input.render();
            Ok(Data::Str(if text.contains("le") || text.contains("la") {
                "fr".into()
            } else {
                "en".into()
            }))
        }));
        let mut sim = Simulated::new(
            teacher,
            StudentKind::Categorical,
            SimulatorConfig { min_samples: 24, ..Default::default() },
        );
        for i in 0..120 {
            let input = if i % 2 == 0 {
                Data::Str(format!("le conseil la ville numero {i}"))
            } else {
                Data::Str(format!("the board of the town number {i}"))
            };
            sim.invoke(input, &mut ctx).unwrap();
        }
        assert!(sim.has_taken_over());
        assert!(sim.stats().student_calls > 0);
    }

    #[test]
    fn unlearnable_outputs_pass_through_without_takeover() {
        let mut ctx = ctx();
        let teacher = Box::new(CustomModule::new("lister", |_, _| Ok(Data::List(vec![]))));
        let mut sim = Simulated::new(teacher, StudentKind::Binary, SimulatorConfig::default());
        for i in 0..100 {
            let out = sim.invoke(Data::Str(format!("item {i}")), &mut ctx).unwrap();
            assert_eq!(out, Data::List(vec![]));
        }
        assert!(!sim.has_taken_over());
        assert_eq!(sim.stats().teacher_calls, 100);
    }

    #[test]
    fn noisy_teacher_blocks_takeover() {
        let mut ctx = ctx();
        // A teacher whose answers are pure hash noise — unlearnable.
        let teacher = Box::new(CustomModule::new("noise", |input, _| {
            let text = input.render();
            Ok(Data::Bool(lingua_ml::fnv::fingerprint(&text) % 2 == 0))
        }));
        let mut sim = Simulated::new(
            teacher,
            StudentKind::Binary,
            SimulatorConfig { min_samples: 30, takeover_accuracy: 0.9, ..Default::default() },
        );
        for i in 0..150 {
            sim.invoke(Data::Str(format!("random input {i}")), &mut ctx).unwrap();
        }
        assert!(!sim.has_taken_over(), "{:?}", sim.stats());
        assert!(sim.stats().trainings >= 1);
    }
}
