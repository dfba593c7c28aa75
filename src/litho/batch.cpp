#include "src/litho/batch.h"

namespace poc {

ScratchArena& tls_scratch_arena() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace poc
