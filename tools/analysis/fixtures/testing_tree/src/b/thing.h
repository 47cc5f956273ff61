#pragma once

namespace b {
int Use();
}  // namespace b
