#pragma once

namespace a {
int Twice(int x);
}  // namespace a
