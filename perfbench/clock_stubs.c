/* Nanosecond clocks for the benchmark's timers: no allocation, so timing
   a per-packet hook does not perturb the allocation counts it sits next
   to.  [now_ns] is wall time (monotonic, vDSO-fast, for the per-packet
   hooks and the sharded rounds); [cpu_ns] is the calling thread's CPU
   time (a system call, for the phases), which leaves out the time the
   host scheduler gives to other processes. */
#include <time.h>
#include <caml/mlvalues.h>

static intnat read_clock(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat lrpbench_now_ns(value unit)
{
  (void)unit;
  return read_clock(CLOCK_MONOTONIC);
}

value lrpbench_now_ns_byte(value unit)
{
  return Val_long(lrpbench_now_ns(unit));
}

intnat lrpbench_cpu_ns(value unit)
{
  (void)unit;
  return read_clock(CLOCK_THREAD_CPUTIME_ID);
}

value lrpbench_cpu_ns_byte(value unit)
{
  return Val_long(lrpbench_cpu_ns(unit));
}
