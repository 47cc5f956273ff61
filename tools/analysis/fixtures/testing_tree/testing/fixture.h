namespace fixture {
int Seeded();
}  // namespace fixture
