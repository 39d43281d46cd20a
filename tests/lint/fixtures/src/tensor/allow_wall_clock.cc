// Fixture: a sanctioned exception — a tuning file's tuned_at_unix
// provenance stamp is a deliberate wall-clock read (it records WHEN the
// machine was tuned and is never selected on), suppressed via the named
// pragma.
#include <ctime>

long FindDbProvenanceStamp() {
  return time(nullptr);  // desalign-lint: allow(wall-clock) tuned_at stamp
}
