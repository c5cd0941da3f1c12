/* Child-process timing for the benchmark harness.

   OCaml's Unix library has no getrusage/wait4, and polling
   /proc/PID/status undersamples a short-lived peak, so the harness
   runs each child through fork/execv and reaps it with wait4, which
   reports the child's own CPU time and peak resident set.  Wall time
   is read from CLOCK_MONOTONIC around the fork and the reap.

   A timeout is an alarm(2) set in the child before execv: alarms
   survive exec, and SIGALRM's default action ends the child, so the
   parent can block in wait4 (no polling) and still never wait longer
   than the timeout. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double monotonic_s(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value atpb_monotonic_now(value unit)
{
  (void)unit;
  return caml_copy_double(monotonic_s());
}

static void redirect(const char *path, int fd)
{
  int f = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (f < 0 || dup2(f, fd) < 0) _exit(127);
  close(f);
}

/* run prog argv stdout_path stderr_path timeout_s
   -> { exit_code; signal; wall_s; cpu_s; maxrss_kb }
   exit_code is -1 when the child was killed by a signal, and signal
   is 0 when it exited normally. */
value atpb_run(value v_prog, value v_argv, value v_out, value v_err,
               value v_timeout)
{
  CAMLparam5(v_prog, v_argv, v_out, v_err, v_timeout);
  CAMLlocal1(res);
  mlsize_t argc = Wosize_val(v_argv);
  char **argv = malloc((argc + 1) * sizeof(char *));
  char *prog = strdup(String_val(v_prog));
  char *out = strdup(String_val(v_out));
  char *err = strdup(String_val(v_err));
  unsigned timeout = (unsigned)Long_val(v_timeout);
  mlsize_t i;
  pid_t pid, r = 0;
  int status = 0, saved_errno;
  struct rusage ru;
  double t0, t1;

  if (argv == NULL || prog == NULL || out == NULL || err == NULL)
    caml_failwith("atpb_run: out of memory");
  for (i = 0; i < argc; i++) argv[i] = strdup(String_val(Field(v_argv, i)));
  argv[argc] = NULL;

  t0 = monotonic_s();
  pid = fork();
  if (pid == 0) {
    sigset_t none;
    redirect(out, STDOUT_FILENO);
    redirect(err, STDERR_FILENO);
    sigemptyset(&none);
    sigprocmask(SIG_SETMASK, &none, NULL);
    signal(SIGALRM, SIG_DFL);
    if (timeout > 0) alarm(timeout);
    execv(prog, argv);
    _exit(127);
  }
  saved_errno = errno;
  if (pid > 0) {
    caml_enter_blocking_section();
    do {
      r = wait4(pid, &status, 0, &ru);
    } while (r < 0 && errno == EINTR);
    saved_errno = errno;
    caml_leave_blocking_section();
  }
  t1 = monotonic_s();

  for (i = 0; i < argc; i++) free(argv[i]);
  free(argv);
  free(prog);
  free(out);
  free(err);
  if (pid < 0) caml_failwith(strerror(saved_errno));
  if (r < 0) caml_failwith(strerror(saved_errno));

  res = caml_alloc_tuple(5);
  Store_field(res, 0, Val_long(WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  Store_field(res, 1, Val_long(WIFSIGNALED(status) ? WTERMSIG(status) : 0));
  Store_field(res, 2, caml_copy_double(t1 - t0));
  Store_field(res, 3,
              caml_copy_double((double)ru.ru_utime.tv_sec
                               + (double)ru.ru_utime.tv_usec * 1e-6
                               + (double)ru.ru_stime.tv_sec
                               + (double)ru.ru_stime.tv_usec * 1e-6));
  Store_field(res, 4, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
