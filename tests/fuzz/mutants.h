// Seeded mutants of a well-formed document, for the readers' fuzz tests
// (`MutantsFailCleanlyOrRoundTrip`): a reader must reject each mutant with
// an error, or parse it into a value that reads back the same.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.h"

namespace sorn {

// One mutant of `doc`, drawn from `rng`: a byte flip, a deletion of up to
// 8 bytes, one inserted byte, a duplicated span of up to 24 bytes, or a
// run of 10 to 409 digits extending one of doc's numbers. `doc` must hold
// a digit.
inline std::string mutant(const std::string& doc, Rng& rng) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  std::string m = doc;
  switch (rng.next_below(5)) {
    case 0:  // byte flip
      m[below(m.size())] ^= static_cast<char>(1 + below(255));
      break;
    case 1:  // delete
      m.erase(below(m.size()), 1 + below(8));
      break;
    case 2:  // insert
      m.insert(below(m.size() + 1), 1, static_cast<char>(below(256)));
      break;
    case 3: {  // duplicate a span
      const std::string span = m.substr(below(m.size()), 1 + below(24));
      m.insert(below(m.size() + 1), span);
      break;
    }
    default: {  // a long digit run, extending a number
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < doc.size(); ++i)
        if (doc[i] >= '0' && doc[i] <= '9') digits.push_back(i);
      std::string run(10 + below(400), '0');
      for (char& c : run) c = static_cast<char>('0' + below(10));
      m.insert(digits[below(digits.size())] + 1, run);
      break;
    }
  }
  return m;
}

}  // namespace sorn
