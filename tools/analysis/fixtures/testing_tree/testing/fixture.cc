#include "testing/fixture.h"

#include <random>

#include "b/thing.h"

namespace fixture {
int Seeded() { return b::Use(); }
}  // namespace fixture
