// Fixture: the three hygiene rules, checked as AST facts rather than
// regex approximations.
#include <mutex>
#include <thread>

void Spawn() {
  std::mutex mu;              // expect: raw-mutex
  std::thread worker([] {});  // expect: naked-thread
  int* leak = new int(7);     // expect: naked-new
  mu.lock();
  mu.unlock();
  worker.join();
  delete leak;
}
