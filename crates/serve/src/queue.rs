//! The bounded job queue behind `/v1/sweep`.
//!
//! Sweeps are heavyweight (seconds of CPU across all cores), so they
//! never run on connection threads. Instead they are enqueued here and
//! executed by a fixed pool of workers:
//!
//! * **Bounded** — [`JobQueue::submit`] fails with [`QueueFull`] once
//!   `capacity` jobs are waiting; the router turns that into
//!   `503 + Retry-After` (backpressure instead of memory growth).
//! * **Pollable** — every job gets a monotonically increasing id;
//!   [`JobQueue::status`] backs `GET /v1/jobs/<id>` and
//!   [`JobQueue::wait`] backs synchronous `"wait": true` requests.
//! * **Draining shutdown** — [`JobQueue::shutdown`] stops accepting
//!   work, lets workers finish everything already accepted (running
//!   *and* queued), then joins them: an accepted job is never dropped.
//! * **Panic-isolated** — a panicking job is recorded as `failed`; the
//!   worker thread survives.

#![expect(
    clippy::disallowed_types,
    reason = "a synchronous job wait is bounded by a wall-clock deadline; job results never depend on it"
)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;

/// A unit of queued work: returns the result document or an error text.
pub type Job = Box<dyn FnOnce() -> Result<Json, String> + Send + 'static>;

/// Where a job is in its lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished successfully with this result.
    Done(Json),
    /// Finished unsuccessfully with this error message.
    Failed(String),
}

impl JobState {
    /// The state's wire name (`queued`/`running`/`done`/`failed`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the job has finished (successfully or not).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// Submit failed: `capacity` jobs are already waiting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull;

/// Completed job records older than this many completions are pruned.
const RETAINED_COMPLETED: usize = 1024;

struct Inner {
    queue: VecDeque<(u64, Job)>,
    jobs: BTreeMap<u64, (String, JobState)>,
    finished_order: VecDeque<u64>,
    next_id: u64,
    running: usize,
    completed: u64,
    shutdown: bool,
}

impl Inner {
    /// Records a finished job, pruning the oldest finished records past
    /// [`RETAINED_COMPLETED`].
    fn retire(&mut self, id: u64) {
        self.finished_order.push_back(id);
        while self.finished_order.len() > RETAINED_COMPLETED {
            if let Some(old) = self.finished_order.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

/// Counters sampled for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs waiting for a worker.
    pub depth: usize,
    /// Jobs executing right now.
    pub running: usize,
    /// Jobs finished since startup.
    pub completed: u64,
}

/// The bounded queue; share it as an `Arc` between the server and its
/// workers.
pub struct JobQueue {
    inner: Mutex<Inner>,
    work_ready: Condvar,
    job_done: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// An empty queue that will hold at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(JobQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                finished_order: VecDeque::new(),
                next_id: 1,
                running: 0,
                completed: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Starts `n` worker threads that execute jobs until shutdown.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failures (resource exhaustion at boot).
    pub fn spawn_workers(self: &Arc<Self>, n: usize) -> std::io::Result<Vec<JoinHandle<()>>> {
        (0..n.max(1))
            .map(|i| {
                let q = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("jouppi-job-{i}"))
                    .spawn(move || q.worker_loop())
            })
            .collect()
    }

    /// Enqueues a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when `capacity` jobs are already waiting, or when
    /// the queue is shutting down.
    pub fn submit(&self, name: impl Into<String>, job: Job) -> Result<u64, QueueFull> {
        let mut inner = self.lock();
        if inner.shutdown || inner.queue.len() >= self.capacity {
            return Err(QueueFull);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(id, (name.into(), JobState::Queued));
        inner.queue.push_back((id, job));
        drop(inner);
        self.work_ready.notify_one();
        Ok(id)
    }

    /// Records an already-finished job — a result-cache hit served on
    /// the async path still needs a pollable ticket, but it must not
    /// consume a queue slot, wake a worker, or count as an executed
    /// job. The record is immediately `Done` and ages out of the
    /// completed-job window like any other finished job.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue is shutting down (no new tickets
    /// while draining).
    pub fn insert_completed(
        &self,
        name: impl Into<String>,
        result: Json,
    ) -> Result<u64, QueueFull> {
        let mut inner = self.lock();
        if inner.shutdown {
            return Err(QueueFull);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(id, (name.into(), JobState::Done(result)));
        inner.retire(id);
        Ok(id)
    }

    /// The job's name and current state, or `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<(String, JobState)> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// elapses, then returns its latest snapshot (`None` = unknown id).
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<(String, JobState)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            match inner.jobs.get(&id) {
                None => return None,
                Some(record) if record.1.is_terminal() => return Some(record.clone()),
                Some(_) => {}
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return inner.jobs.get(&id).cloned();
            }
            let (guard, _) = self
                .job_done
                .wait_timeout(inner, left)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Current depth / running / completed counters.
    pub fn stats(&self) -> QueueStats {
        let inner = self.lock();
        QueueStats {
            depth: inner.queue.len(),
            running: inner.running,
            completed: inner.completed,
        }
    }

    /// Stops accepting new jobs and wakes all workers so they drain the
    /// backlog and exit. Call `join` on the worker handles afterwards to
    /// wait for the drain to finish.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work_ready.notify_all();
        self.job_done.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn worker_loop(&self) {
        loop {
            let mut inner = self.lock();
            let (id, job) = loop {
                if let Some(entry) = inner.queue.pop_front() {
                    break entry;
                }
                if inner.shutdown {
                    return;
                }
                inner = self
                    .work_ready
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            };
            if let Some(record) = inner.jobs.get_mut(&id) {
                record.1 = JobState::Running;
            }
            inner.running += 1;
            drop(inner);

            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                .unwrap_or_else(|_| Err("job panicked".to_owned()));

            let mut inner = self.lock();
            inner.running -= 1;
            inner.completed += 1;
            if let Some(record) = inner.jobs.get_mut(&id) {
                record.1 = match outcome {
                    Ok(result) => JobState::Done(result),
                    Err(msg) => JobState::Failed(msg),
                };
            }
            inner.retire(id);
            drop(inner);
            self.job_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_run_and_are_pollable() {
        let q = JobQueue::new(8);
        let workers = q.spawn_workers(2).expect("spawn");
        let id = q.submit("double", Box::new(|| Ok(Json::Int(42)))).unwrap();
        let (name, state) = q.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(name, "double");
        assert_eq!(state, JobState::Done(Json::Int(42)));
        assert_eq!(state.label(), "done");
        assert!(q.status(999).is_none());
        q.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(q.stats().completed, 1);
    }

    #[test]
    fn insert_completed_mints_done_tickets_without_queueing() {
        let q = JobQueue::new(2);
        let id = q
            .insert_completed("cached", Json::Int(7))
            .expect("ticket while accepting");
        let (name, state) = q.status(id).expect("ticket is pollable");
        assert_eq!(name, "cached");
        assert_eq!(state, JobState::Done(Json::Int(7)));
        // No slot consumed, no execution counted.
        assert_eq!(q.stats().depth, 0);
        assert_eq!(q.stats().completed, 0);
        q.shutdown();
        assert_eq!(q.insert_completed("late", Json::Null), Err(QueueFull));
    }

    #[test]
    fn completed_records_age_out_on_both_paths() {
        const EXTRA: usize = 3;
        let total = RETAINED_COMPLETED + EXTRA;
        // Through the workers.
        let q = JobQueue::new(total);
        let ids: Vec<u64> = (0..total)
            .map(|_| q.submit("job", Box::new(|| Ok(Json::Null))).unwrap())
            .collect();
        let workers = q.spawn_workers(1).expect("spawn");
        q.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        // Through insert_completed.
        let cached = JobQueue::new(1);
        let tickets: Vec<u64> = (0..total)
            .map(|_| cached.insert_completed("cached", Json::Null).unwrap())
            .collect();
        for (q, ids) in [(&q, &ids), (&cached, &tickets)] {
            let (old, kept) = ids.split_at(EXTRA);
            assert!(old.iter().all(|&id| q.status(id).is_none()));
            assert!(kept.iter().all(|&id| q.status(id).is_some()));
        }
    }

    #[test]
    fn overflow_is_rejected() {
        let q = JobQueue::new(2);
        // No workers: everything stays queued.
        q.submit("a", Box::new(|| Ok(Json::Null))).unwrap();
        q.submit("b", Box::new(|| Ok(Json::Null))).unwrap();
        assert_eq!(q.submit("c", Box::new(|| Ok(Json::Null))), Err(QueueFull));
        assert_eq!(q.stats().depth, 2);
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let q = JobQueue::new(16);
        let ids: Vec<u64> = (0..6)
            .map(|i| {
                q.submit(
                    format!("j{i}"),
                    Box::new(move || {
                        std::thread::sleep(Duration::from_millis(10));
                        Ok(Json::Int(i))
                    }),
                )
                .unwrap()
            })
            .collect();
        let workers = q.spawn_workers(2).expect("spawn");
        q.shutdown();
        assert_eq!(
            q.submit("late", Box::new(|| Ok(Json::Null))),
            Err(QueueFull)
        );
        for w in workers {
            w.join().unwrap();
        }
        for (i, id) in ids.iter().enumerate() {
            let (_, state) = q.status(*id).unwrap();
            assert_eq!(state, JobState::Done(Json::Int(i as i64)), "job {id}");
        }
        assert_eq!(q.stats().completed, 6);
    }

    #[test]
    fn panicking_job_fails_without_killing_worker() {
        let q = JobQueue::new(4);
        let workers = q.spawn_workers(1).expect("spawn");
        let bad = q.submit("bad", Box::new(|| panic!("boom"))).unwrap();
        let good = q.submit("good", Box::new(|| Ok(Json::Bool(true)))).unwrap();
        let (_, bad_state) = q.wait(bad, Duration::from_secs(5)).unwrap();
        assert_eq!(bad_state, JobState::Failed("job panicked".to_owned()));
        let (_, good_state) = q.wait(good, Duration::from_secs(5)).unwrap();
        assert_eq!(good_state, JobState::Done(Json::Bool(true)));
        q.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }
}
