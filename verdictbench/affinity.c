/* CPU affinity for the verdict benchmark: which CPUs the process may use,
   and pinning the calling process to one of them. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

/* The CPUs in the affinity mask of the calling process, in order. */
value vbench_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int n = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    caml_failwith("sched_getaffinity");
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) n++;
  res = caml_alloc_tuple(n);
  n = 0;
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) Store_field(res, n++, Val_int(c));
  CAMLreturn(res);
}

/* Pin the calling process (and the processes it starts later) to [cpu]. */
value vbench_pin(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    caml_failwith("sched_setaffinity");
  return Val_unit;
}
