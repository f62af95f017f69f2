/* CLOCK_MONOTONIC for Clock.now: the native entry returns an unboxed
   double and allocates nothing; the bytecode entry boxes it. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double legodb_clock_monotonic(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value legodb_clock_monotonic_byte(value unit)
{
  return caml_copy_double(legodb_clock_monotonic(unit));
}
