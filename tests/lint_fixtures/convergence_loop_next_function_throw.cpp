// Seeded violation: the Newton loop can exhaust its budget silently. The
// throw a few lines below belongs to the next function, so it handles
// nothing here — cat_lint must still flag the loop.
bool step(double& x);

double solve(double x0) {
  double x = x0;
  for (int it = 0; it < 50; ++it) {
    if (step(x)) break;
  }
  return x;
}

double checked(double x) {
  if (x < 0.0) throw "checked: negative input";
  return x;
}
