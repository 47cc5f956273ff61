#include "a/util.h"

#include "testing/fixture.h"

namespace a {
int Fixtured() { return Twice(2); }
}  // namespace a
