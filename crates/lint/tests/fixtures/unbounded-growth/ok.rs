//! Fixture: the same log, bounded — old entries are evicted before new
//! ones are recorded.

pub struct Sessions {
    log: Vec<u64>,
}

impl Sessions {
    pub fn record(&mut self, id: u64) {
        if self.log.len() >= 64 {
            self.log.remove(0);
        }
        self.log.push(id);
    }
}

/// A one-shot result: nothing appends to its field after `summarize`
/// builds it.
pub struct Summary {
    ids: Vec<u64>,
}

/// The local `ids` shares the field's name, but growing it grows no
/// field.
pub fn summarize(input: &[u64]) -> Summary {
    let mut ids = Vec::new();
    for &id in input {
        ids.push(id);
    }
    Summary { ids }
}
