//! Evaluation metrics: accuracy, precision/recall/F1 over a binary confusion matrix.

/// Binary classification counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    pub tp: usize,
    pub fp: usize,
    pub tn: usize,
    pub fn_: usize,
}

impl Confusion {
    pub fn add(&mut self, prediction: bool, label: bool) {
        match (prediction, label) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(predictions: &[bool], labels: &[bool]) -> Confusion {
        let mut c = Confusion::default();
        for (&p, &y) in predictions.iter().zip(labels) {
            c.add(p, y);
        }
        c
    }

    #[test]
    fn confusion_counts_and_metrics() {
        let preds = [true, true, false, false, true];
        let labels = [true, false, true, false, true];
        let c = tally(&preds, &labels);
        assert_eq!(c, Confusion { tp: 2, fp: 1, tn: 1, fn_: 1 });
        assert!((c.accuracy() - 0.6).abs() < 1e-9);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-9);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-9);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_cases_return_zero() {
        let c = Confusion::default();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn perfect_predictions() {
        let c = tally(&[true, false], &[true, false]);
        assert_eq!(c.f1(), 1.0);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn incremental_add_matches_batch() {
        let mut inc = Confusion::default();
        for (p, y) in [(true, false), (false, false), (true, true)] {
            inc.add(p, y);
        }
        assert_eq!(inc, Confusion { tp: 1, fp: 1, tn: 1, fn_: 0 });
    }
}
