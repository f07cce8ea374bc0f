//! # lingua-ml
//!
//! The classic machine-learning substrate for the Lingua Manga reproduction.
//!
//! The paper's *Simulator* optimizer replaces expensive LLM calls with a
//! supervised student model trained on the LLM's own outputs; its Table 1
//! baselines (Magellan, Ditto) and §4.3 baselines (HoloClean, IMP) are
//! likewise classic ML systems. This crate implements everything those
//! components need, from scratch:
//!
//! * [`textsim`] — string similarity measures (Levenshtein, Jaro-Winkler,
//!   token Jaccard, trigram cosine, Monge-Elkan, ...).
//! * [`features`] — record-pair feature extraction and a hashing vectorizer
//!   for free text.
//! * [`logreg`] — binary logistic regression trained with mini-batch SGD.
//! * [`naive_bayes`] — multinomial naive Bayes for multiclass text problems.
//! * [`tree`] / [`forest`] — CART decision trees and random forests.
//! * [`metrics`] — accuracy, precision/recall/F1, confusion matrices.
//!
//! It also hosts the workspace-wide utilities, here because this is the
//! lowest crate everything else builds on, and the reason the workspace
//! needs nothing beyond `std`: [`fnv`], the one stable hash; [`check`], the
//! seeded property runner every `prop_*` suite draws from; [`rng`], the one
//! seeded generator behind every dataset, fault plan and simulated answer;
//! and [`sync`], the one poison-free lock.
//!
//! All training is seeded and deterministic.

pub mod check;
pub mod features;
pub mod fnv;
pub mod forest;
pub mod logreg;
pub mod metrics;
pub mod naive_bayes;
pub mod rng;
pub mod sync;
pub mod textsim;
pub mod tree;

/// A dense feature vector.
pub type FeatureVec = Vec<f64>;

/// A labeled training example: features plus a class id.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    pub features: FeatureVec,
    pub label: usize,
}

impl Example {
    pub fn new(features: FeatureVec, label: usize) -> Self {
        Example { features, label }
    }
}
