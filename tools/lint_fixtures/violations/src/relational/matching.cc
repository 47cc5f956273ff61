#include <string>
#include <unordered_map>
#include <utility>
#include <vector>
std::vector<std::pair<size_t, size_t>> Pairs() {
  std::unordered_map<std::string, size_t> right_index;
  std::vector<std::pair<size_t, size_t>> matched;
  for (const auto& entry : right_index) matched.emplace_back(0, entry.second);
  return matched;
}
