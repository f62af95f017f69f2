/* CPU affinity for the benchmark's processes (Linux). */

#define _GNU_SOURCE
#include <sched.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_getaffinity");
  list = Val_emptylist;
  for (int c = CPU_SETSIZE - 1; c >= 0; c--)
    if (CPU_ISSET(c, &set)) {
      cell = caml_alloc_small(2, 0);
      Field(cell, 0) = Val_int(c);
      Field(cell, 1) = list;
      list = cell;
    }
  CAMLreturn(list);
}

/* Restrict the calling thread, and the threads and processes it
   starts from now on, to the given CPUs. */
value perfbench_pin(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (; cpus != Val_emptylist; cpus = Field(cpus, 1))
    CPU_SET(Int_val(Field(cpus, 0)), &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_setaffinity");
  return Val_unit;
}
