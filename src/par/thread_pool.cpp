#include "src/par/thread_pool.h"

#include <algorithm>
#include <utility>

namespace poc {
namespace {

thread_local bool t_on_worker_thread = false;

/// The cancellation exception every cancelled loop raises — same code and
/// origin whatever the thread count or kill timing, so callers can match
/// on FaultCode::kCancelled alone.
[[noreturn]] void throw_cancelled() {
  throw FlowException(FlowError{FaultCode::kCancelled, kNoWindowId,
                                "par.cancel",
                                "cancelled at chunk boundary"});
}

}  // namespace

CancelToken& global_cancel_token() {
  static CancelToken token;
  return token;
}

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    // Queue 0 belongs to the submitting caller; worker w owns queue w + 1.
    threads_.emplace_back([this, w] { worker_loop(w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::on_worker_thread() { return t_on_worker_thread; }

void ThreadPool::worker_loop(std::size_t queue_index) {
  t_on_worker_thread = true;
  std::uint64_t seen_generation = 0;
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      batch = batch_;
    }
    // The join cap is what makes `threads` a real knob on machines with
    // more workers than the request: surplus workers skip the batch.
    if (batch->joined.fetch_add(1) < batch->max_extra_workers) {
      run_chunks(*batch, queue_index);
    }
  }
}

void ThreadPool::run_chunks(Batch& batch, std::size_t home_queue) {
  const std::size_t num_queues = batch.queues.size();
  std::size_t completed = 0;
  while (true) {
    // Cancellation is honoured at chunk boundaries only: chunks already
    // running elsewhere drain normally; chunks claimed from here on are
    // discarded (still counted, so the batch terminates promptly).
    const bool cancelled = batch.cancel != nullptr && batch.cancel->cancelled();
    std::size_t chunk_index = batch.num_chunks;  // sentinel: none found
    // Own queue first (front), then steal from the back of the others.
    for (std::size_t probe = 0; probe < num_queues; ++probe) {
      const std::size_t q = (home_queue + probe) % num_queues;
      Batch::Queue& queue = batch.queues[q];
      std::lock_guard<std::mutex> lock(queue.mutex);
      if (queue.chunks.empty()) continue;
      if (probe == 0) {
        chunk_index = queue.chunks.front();
        queue.chunks.pop_front();
      } else {
        chunk_index = queue.chunks.back();
        queue.chunks.pop_back();
      }
      break;
    }
    if (chunk_index == batch.num_chunks) break;  // nothing left to claim
    if (cancelled) {
      batch.chunks_skipped.fetch_add(1, std::memory_order_relaxed);
      ++completed;
      continue;
    }

    const std::size_t first = chunk_index * batch.chunk;
    const std::size_t last = std::min(first + batch.chunk, batch.n);
    try {
      for (std::size_t i = first; i < last; ++i) (*batch.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.error_mutex);
      if (!batch.error || chunk_index < batch.error_chunk) {
        batch.error = std::current_exception();
        batch.error_chunk = chunk_index;
      }
    }
    ++completed;
  }
  if (completed > 0) {
    std::lock_guard<std::mutex> lock(batch.done_mutex);
    batch.chunks_remaining -= completed;
    if (batch.chunks_remaining == 0) batch.done_cv.notify_all();
  }
}

namespace {

/// Serial loop with the same chunk-boundary cancellation contract as the
/// pooled path: poll before each chunk, drain nothing (there is nothing in
/// flight), throw kCancelled when items were left unrun.
void serial_for_cancellable(std::size_t n, std::size_t chunk,
                            const std::function<void(std::size_t)>& fn,
                            const CancelToken* cancel) {
  if (cancel == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (std::size_t first = 0; first < n; first += chunk) {
    if (cancel->cancelled()) throw_cancelled();
    const std::size_t last = std::min(first + chunk, n);
    for (std::size_t i = first; i < last; ++i) fn(i);
  }
}

}  // namespace

void ThreadPool::parallel_for(std::size_t n, std::size_t chunk,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_threads,
                              const CancelToken* cancel) {
  POC_EXPECTS(chunk >= 1);
  if (n == 0) return;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  std::size_t participants = workers() + 1;
  if (max_threads != 0) participants = std::min(participants, max_threads);
  participants = std::min(participants, num_chunks);
  if (participants <= 1) {
    // Serial fast path: same call sequence a 1-thread batch would make.
    serial_for_cancellable(n, chunk, fn, cancel);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->chunk = chunk;
  batch->num_chunks = num_chunks;
  batch->fn = &fn;
  batch->cancel = cancel;
  batch->queues = std::vector<Batch::Queue>(workers() + 1);
  batch->max_extra_workers = participants - 1;
  batch->chunks_remaining = num_chunks;
  // Deal chunks round-robin across the participating queues so each
  // thread starts with a contiguous-ish share; stealing evens out the
  // rest.  No lock needed: workers cannot see the batch yet.
  for (std::size_t c = 0; c < num_chunks; ++c) {
    batch->queues[c % participants].chunks.push_back(c);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = batch;
    ++generation_;
  }
  wake_cv_.notify_all();

  run_chunks(*batch, /*home_queue=*/0);

  {
    std::unique_lock<std::mutex> lock(batch->done_mutex);
    batch->done_cv.wait(lock, [&] { return batch->chunks_remaining == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_.reset();
  }
  if (batch->error) {
    // Take the exception out of the batch first: a worker may still hold
    // the batch, and its last reference must not be the one that destroys
    // the exception.  So the exception lives and dies on this thread.
    const std::exception_ptr error = std::exchange(batch->error, nullptr);
    std::rethrow_exception(error);
  }
  if (batch->chunks_skipped.load(std::memory_order_relaxed) > 0) {
    throw_cancelled();
  }
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& global_pool() {
  static ThreadPool pool(
      std::max<std::size_t>(4, resolve_threads(0)) - 1);
  return pool;
}

void parallel_for(std::size_t threads, std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& fn,
                  const CancelToken* cancel) {
  POC_EXPECTS(chunk >= 1);
  threads = resolve_threads(threads);
  if (threads <= 1 || n <= 1 || ThreadPool::on_worker_thread()) {
    serial_for_cancellable(n, chunk, fn, cancel);
    return;
  }
  global_pool().parallel_for(n, chunk, fn, threads, cancel);
}

std::vector<IndexedError> try_parallel_for(
    std::size_t threads, std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t)>& fn, std::string_view origin,
    const CancelToken* cancel) {
  std::mutex mutex;
  std::vector<IndexedError> errors;
  // The wrapper absorbs every throw at item granularity, so from the
  // pool's point of view no chunk ever fails and all items run.
  // Cancellation is raised by the loop itself, never by an item, so it
  // passes through uncaptured.
  const std::function<void(std::size_t)> guarded = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      FlowError err = capture_flow_error(i, origin);
      std::lock_guard<std::mutex> lock(mutex);
      errors.push_back({i, std::move(err)});
    }
  };
  parallel_for(threads, n, chunk, guarded, cancel);
  std::sort(errors.begin(), errors.end(),
            [](const IndexedError& a, const IndexedError& b) {
              return a.index < b.index;
            });
  return errors;
}

}  // namespace poc
